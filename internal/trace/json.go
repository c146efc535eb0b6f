package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// The codec below reads and writes the Kineto / Chrome trace-event schema
// in one pass over a byte slice. It accepts and rejects exactly the inputs
// encoding/json would for the schema's record types, decodes them to the
// same values, and writes the bytes encoding/json would write; the
// reflective encoding/json codec it replaced is kept in the package tests
// as the oracle it is checked against.
//
// On disk a trace is one object: "schemaVersion" and "distributedInfo_rank"
// (integers), "metadata" (string to string) and "traceEvents", an array of
// events with "name", "cat", "ph" (strings), "ts", "dur" (fractional
// microseconds), "pid", "tid" (integers) and an "args" object of scalars.

func usFromNs(ns int64) float64 { return float64(ns) / 1000.0 }

func nsFromUs(us float64) int64 { return int64(math.Round(us * 1000.0)) }

// EncodeJSON writes the trace in Kineto-compatible chrome trace JSON:
// metadata and args keys sorted, strings HTML-escaped, floats in
// ECMAScript form and a trailing newline, as encoding/json writes them.
func EncodeJSON(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	b := append(make([]byte, 0, 4096), `{"schemaVersion":1,"distributedInfo_rank":`...)
	b = strconv.AppendInt(b, int64(t.Rank), 10)
	if len(t.Meta) > 0 {
		keys := make([]string, 0, len(t.Meta))
		for k := range t.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, `,"metadata":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendString(b, t.Meta[k])
		}
		b = append(b, '}')
	}
	b = append(b, `,"traceEvents":[`...)
	for i := range t.Events {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEvent(b, &t.Events[i])
		bw.Write(b) // errors stick in bw and surface at Flush
		b = b[:0]
	}
	b = append(b, "]}\n"...)
	bw.Write(b)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// appendEvent appends one event object. Args keys are written in sorted
// order, as encoding/json writes a map.
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendString(b, e.Cat.String())
	b = append(b, `,"ph":"X","ts":`...)
	b = appendFloat(b, usFromNs(e.Ts))
	b = append(b, `,"dur":`...)
	b = appendFloat(b, usFromNs(e.Dur))
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.TID), 10)

	a := argWriter{b: b}
	comm := e.Cat == CatKernel && e.Comm != CommNone
	if e.Bytes > 0 {
		a.int("bytes", e.Bytes)
	}
	if e.Runtime != RuntimeNone {
		a.int("cbid", int64(e.Runtime))
	}
	if comm {
		a.int("comm_bytes", e.CommBytes)
		a.int("comm_id", e.CommID)
		a.int("comm_kind", int64(e.Comm))
		a.int("comm_seq", e.CommSeq)
	}
	if e.Correlation != 0 {
		a.int("correlation", e.Correlation)
	}
	if e.CUDAEvent != 0 {
		a.int("cuda_event", e.CUDAEvent)
	}
	if e.FLOPs > 0 {
		a.int("flops", e.FLOPs)
	}
	if e.Cat == CatKernel {
		a.str("kernel_class", e.Class.String())
	}
	if e.Layer >= 0 {
		a.int("layer", int64(e.Layer))
	}
	if e.Microbatch >= 0 {
		a.int("microbatch", int64(e.Microbatch))
	}
	if e.Pass != PassNone {
		a.str("pass", e.Pass.String())
	}
	if comm && e.PeerRank >= 0 {
		a.int("peer_rank", int64(e.PeerRank))
	}
	if e.Stream >= 0 && (e.Cat == CatCUDARuntime || e.IsGPU()) {
		a.int("stream", int64(e.Stream))
	}
	b = a.b
	if a.n > 0 {
		b = append(b, '}')
	}
	return append(b, '}')
}

// argWriter appends an event's "args" object, opening it at the first key.
type argWriter struct {
	b []byte
	n int
}

func (a *argWriter) key(k string) {
	if a.n == 0 {
		a.b = append(a.b, `,"args":{"`...)
	} else {
		a.b = append(a.b, `,"`...)
	}
	a.n++
	a.b = append(a.b, k...)
	a.b = append(a.b, `":`...)
}

func (a *argWriter) int(k string, v int64) {
	a.key(k)
	a.b = strconv.AppendInt(a.b, v, 10)
}

func (a *argWriter) str(k, v string) {
	a.key(k)
	a.b = appendString(a.b, v)
}

// appendFloat formats f as encoding/json does: like ECMAScript's
// Number.prototype.toString, with 'e' notation only below 1e-6 and from
// 1e21 on, and a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped by
// default: printable characters other than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does by
// default: control, HTML-sensitive, U+2028 and U+2029 characters escaped
// and each invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeJSON reads a Kineto-compatible chrome trace back into a Trace; see
// ParseJSON.
func DecodeJSON(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return ParseJSON(data)
}

// ParseJSON decodes a Kineto-compatible chrome trace. Events with phases
// other than complete ("X") are ignored, as Lumos only models duration
// events, and so are events of categories Lumos does not model. Errors
// name the byte offset and, inside traceEvents, the event index. The
// Trace keeps no reference to data.
func ParseJSON(data []byte) (*Trace, error) {
	d := decoder{data: data, event: -1, names: map[string]string{}}
	d.ws()
	switch d.peek() {
	case '{':
		return d.trace()
	case 'n':
		// encoding/json decodes a top-level null as a zero trace.
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return &Trace{Meta: map[string]string{}, Events: []Event{}}, nil
	}
	return nil, d.typeError("trace", "object")
}

// maxDepth is encoding/json's nesting limit for objects and arrays.
const maxDepth = 10000

// decoder is a validating scanner over one trace document. It follows
// encoding/json's rules for the schema's record types: object keys match
// field names exactly, else case-insensitively; "args" keys match exactly;
// a repeated key's last value wins, except that a null leaves a scalar
// field as it was and a repeated object merges into the map so far; args
// numbers are read as float64 and truncated to int64.
type decoder struct {
	data  []byte
	pos   int
	event int               // index of the traceEvents element being read, or -1
	names map[string]string // interned event names
}

var (
	traceFields = []string{"schemaVersion", "distributedInfo_rank", "metadata", "traceEvents"}
	eventFields = []string{"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
)

func (d *decoder) trace() (*Trace, error) {
	t := &Trace{}
	var pending error // first bad event of the current traceEvents
	err := d.object(func(key []byte) error {
		switch matchField(key, traceFields) {
		case 0:
			var version int
			return d.intValue(&version, "schemaVersion")
		case 1:
			return d.intValue(&t.Rank, "distributedInfo_rank")
		case 2:
			return d.meta(&t.Meta)
		case 3:
			var err error
			t.Events, pending, err = d.events()
			return err
		}
		return d.skip(1, false)
	})
	if err != nil {
		return nil, err
	}
	if pending != nil {
		return nil, pending
	}
	if t.Meta == nil {
		t.Meta = map[string]string{}
	}
	if t.Events == nil {
		t.Events = []Event{}
	}
	return t, nil
}

func (d *decoder) meta(m *map[string]string) error {
	switch d.peek() {
	case 'n':
		*m = nil
		return d.literal("null")
	case '{':
	default:
		return d.typeError("metadata", "object")
	}
	if *m == nil {
		*m = map[string]string{}
	}
	return d.object(func(key []byte) error {
		v, _, err := d.stringValue("metadata value")
		(*m)[string(key)] = string(v)
		return err
	})
}

// events reads the traceEvents array. encoding/json decodes events only
// from the last traceEvents value, so a type error in an event does not
// stop the scan: it is returned as pending, for trace to report unless a
// later traceEvents value replaces this one. Syntax errors return as err.
func (d *decoder) events() (events []Event, pending, err error) {
	switch d.peek() {
	case 'n':
		return nil, nil, d.literal("null")
	case '[':
	default:
		return nil, nil, d.typeError("traceEvents", "array")
	}
	// Every event the encoder writes, and every Kineto event, has one "ph"
	// key, so this sizes Events once.
	events = make([]Event, 0, bytes.Count(d.data[d.pos:], []byte(`"ph"`)))
	err = d.array(func(i int) error {
		d.event = i
		start := d.pos
		if pending == nil {
			e, keep, err := d.eventValue()
			if err == nil {
				if keep {
					events = append(events, e)
				}
				return nil
			}
			pending = err
			d.pos = start
		}
		return d.skip(2, false)
	})
	d.event = -1
	return events, pending, err
}

// argSlots holds an event's recognised args. A set bit means the key's
// last value was usable; otherwise the field keeps its default.
type argSlots struct {
	set uint16
	v   [numArgs]int64
}

const (
	argBytes = iota
	argCbid
	argCommBytes
	argCommID
	argCommKind
	argCommSeq
	argCorrelation
	argCUDAEvent
	argFLOPs
	argKernelClass
	argLayer
	argMicrobatch
	argPass
	argPeerRank
	argStream
	numArgs
)

func argIndex(key []byte) int {
	switch string(key) {
	case "bytes":
		return argBytes
	case "cbid":
		return argCbid
	case "comm_bytes":
		return argCommBytes
	case "comm_id":
		return argCommID
	case "comm_kind":
		return argCommKind
	case "comm_seq":
		return argCommSeq
	case "correlation":
		return argCorrelation
	case "cuda_event":
		return argCUDAEvent
	case "flops":
		return argFLOPs
	case "kernel_class":
		return argKernelClass
	case "layer":
		return argLayer
	case "microbatch":
		return argMicrobatch
	case "pass":
		return argPass
	case "peer_rank":
		return argPeerRank
	case "stream":
		return argStream
	}
	return -1
}

func (a *argSlots) put(k int, v int64) {
	a.set |= 1 << k
	a.v[k] = v
}

func (a *argSlots) clear(k int) { a.set &^= 1 << k }

func (a *argSlots) get(k int, def int64) int64 {
	if a.set&(1<<k) != 0 {
		return a.v[k]
	}
	return def
}

// eventValue reads one traceEvents element. keep is false for elements
// Lumos does not model: null, non-"X" phases and unknown categories.
func (d *decoder) eventValue() (e Event, keep bool, err error) {
	switch d.peek() {
	case 'n':
		// encoding/json decodes a null event to zero values, whose empty
		// category is unknown.
		return e, false, d.literal("null")
	case '{':
	default:
		return e, false, d.typeError("event", "object")
	}
	var (
		cat     = -1
		phaseX  = true
		ts, dur float64
		args    argSlots
	)
	err = d.object(func(key []byte) error {
		field := matchField(key, eventFields)
		switch field {
		case 0, 1, 2:
			s, null, err := d.stringValue(eventFields[field])
			if err != nil || null {
				return err
			}
			switch field {
			case 0:
				e.Name = d.intern(s)
			case 1:
				cat = nameIndex(catNames[:], s)
			default:
				phaseX = len(s) == 0 || string(s) == "X"
			}
			return nil
		case 3:
			return d.floatValue(&ts, "ts")
		case 4:
			return d.floatValue(&dur, "dur")
		case 5:
			return d.intValue(&e.PID, "pid")
		case 6:
			return d.intValue(&e.TID, "tid")
		case 7:
			return d.args(&args)
		}
		return d.skip(3, false)
	})
	if err != nil || !phaseX || cat < 0 {
		return e, false, err
	}
	e.Cat = Category(cat)
	e.Ts = nsFromUs(ts)
	e.Dur = nsFromUs(dur)
	e.Correlation = args.get(argCorrelation, 0)
	e.Stream = int(args.get(argStream, -1))
	e.Runtime = RuntimeKind(args.get(argCbid, 0))
	e.CUDAEvent = args.get(argCUDAEvent, 0)
	e.Layer = int(args.get(argLayer, -1))
	e.Microbatch = int(args.get(argMicrobatch, -1))
	e.FLOPs = args.get(argFLOPs, 0)
	e.Bytes = args.get(argBytes, 0)
	e.Pass = PassKind(args.get(argPass, 0))
	e.PeerRank = -1
	if e.Cat == CatKernel {
		e.Class = KernelClass(args.get(argKernelClass, 0))
		e.Comm = CommKind(args.get(argCommKind, 0))
		e.CommID = args.get(argCommID, 0)
		e.CommSeq = args.get(argCommSeq, 0)
		e.CommBytes = args.get(argCommBytes, 0)
		e.PeerRank = int(args.get(argPeerRank, -1))
	}
	return e, true, nil
}

// args reads an event's "args" object into a. Integer keys take a number
// (truncated from float64) or a decimal string; "pass" and "kernel_class"
// take a string; any other value leaves the field at its default. Every
// number anywhere in args must fit a float64, as encoding/json decodes the
// whole object.
func (d *decoder) args(a *argSlots) error {
	switch d.peek() {
	case 'n':
		*a = argSlots{}
		return d.literal("null")
	case '{':
	default:
		return d.typeError("args", "object")
	}
	return d.object(func(key []byte) error {
		k := argIndex(key)
		if k < 0 {
			return d.skip(4, true)
		}
		switch c := d.peek(); {
		case c == '"':
			s, err := d.str()
			if err != nil {
				return err
			}
			switch k {
			case argPass:
				a.put(k, int64(max(0, nameIndex(passNames[:], s))))
			case argKernelClass:
				a.put(k, int64(max(0, nameIndex(kernelClassNames[:], s))))
			default:
				if n, err := strconv.ParseInt(string(s), 10, 64); err == nil {
					a.put(k, n)
				} else {
					a.clear(k)
				}
			}
			return nil
		case c == '-' || isDigit(c):
			f, err := d.float()
			if err != nil {
				return err
			}
			if k == argPass || k == argKernelClass {
				a.clear(k)
			} else {
				a.put(k, int64(f))
			}
			return nil
		}
		a.clear(k)
		return d.skip(4, true)
	})
}

// nameIndex returns the index of s in names, or -1.
func nameIndex(names []string, s []byte) int {
	for i, n := range names {
		if n == string(s) {
			return i
		}
	}
	return -1
}

// matchField returns the index of the field key names, matching exactly
// and then case-insensitively as encoding/json matches struct fields, or
// -1.
func matchField(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}

func (d *decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// object reads the object at d.pos, calling member for each key (decoded)
// with d.pos at its value; member must consume the value.
func (d *decoder) object(member func(key []byte) error) error {
	d.pos++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		d.ws()
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array reads the array at d.pos, calling elem for each element with d.pos
// at it; elem must consume the element.
func (d *decoder) array(elem func(i int) error) error {
	d.pos++ // '['
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// skip validates and consumes one value nested in depth objects and
// arrays. With floats set, every number in it must fit a float64.
func (d *decoder) skip(depth int, floats bool) error {
	switch c := d.peek(); {
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return d.errorf("exceeded max depth")
		}
		if c == '{' {
			return d.object(func([]byte) error { return d.skip(depth+1, floats) })
		}
		return d.array(func(int) error { return d.skip(depth+1, floats) })
	case c == '-' || isDigit(c):
		if floats {
			_, err := d.float()
			return err
		}
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntaxError("looking for beginning of value")
}

// stringValue reads a string field's value. A null reports null and leaves
// the field as it was.
func (d *decoder) stringValue(field string) (s []byte, null bool, err error) {
	switch d.peek() {
	case '"':
		s, err = d.str()
		return s, false, err
	case 'n':
		return nil, true, d.literal("null")
	}
	return nil, false, d.typeError(field, "string")
}

// intValue reads an integer field; a null leaves *v as it was.
func (d *decoder) intValue(v *int, field string) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		start := d.pos
		lit, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			d.pos = start
			return d.errorf("%s: number %s is not an integer", field, lit)
		}
		*v = int(n)
		return nil
	}
	return d.typeError(field, "integer")
}

// floatValue reads a float64 field; a null leaves *v as it was.
func (d *decoder) floatValue(v *float64, field string) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		f, err := d.float()
		if err != nil {
			return err
		}
		*v = f
		return nil
	}
	return d.typeError(field, "number")
}

// float reads a number that must fit a float64.
func (d *decoder) float() (float64, error) {
	start := d.pos
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	if f, ok := shortDecimal(lit); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.pos = start
		return 0, d.errorf("number %s overflows float64", lit)
	}
	return f, nil
}

// shortDecimal converts a number literal of at most 15 digits and no
// exponent to the float64 strconv.ParseFloat returns for it: the digits
// and the power of ten are both exact in a float64, so one division rounds
// correctly.
func shortDecimal(lit []byte) (float64, bool) {
	var m uint64
	digits, dot := 0, -1
	for i, c := range lit {
		switch {
		case isDigit(c):
			m = m*10 + uint64(c-'0')
			digits++
		case c == '.':
			dot = i
		case c != '-':
			return 0, false
		}
	}
	if digits > 15 {
		return 0, false
	}
	f := float64(m)
	if dot >= 0 {
		f /= pow10[len(lit)-1-dot]
	}
	if lit[0] == '-' {
		f = -f
	}
	return f, true
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// plainString marks the bytes that stand for themselves inside a JSON
// string: printable ASCII other than '"' and '\\'.
var plainString = func() (plain [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// str reads a string and returns its decoded contents, which alias d.data
// unless the string holds escapes or non-ASCII bytes.
func (d *decoder) str() ([]byte, error) {
	start := d.pos
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	// Escapes and non-ASCII text are rare in traces: let encoding/json
	// decode them, replacing invalid UTF-8 exactly as it always has.
	var s string
	if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
		d.pos = start
		return nil, d.errorf("%v", err)
	}
	return []byte(s), nil
}

// scanString validates the string at d.pos and returns its raw contents.
// plain reports that they hold only printable ASCII without escapes.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1
	i := start
	for i < len(data) && plainString[data[i]] {
		i++
	}
	plain = true
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			switch d.pos = i; d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for i++; i < d.pos+5; i++ {
					if i >= len(data) || !isHex(data[i]) {
						d.pos = i
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.pos = i
	return nil, false, d.syntaxError("in string literal")
}

// number validates the JSON number at d.pos and returns its literal.
func (d *decoder) number() ([]byte, error) {
	data, i := d.data, d.pos
	digits := func() {
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		digits()
	default:
		d.pos = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		digits()
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		digits()
	}
	lit := data[d.pos:i]
	d.pos = i
	return lit, nil
}

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.pos++
	}
}

// peek returns the byte at d.pos, or 0 at the end of the input (0 is never
// valid where a token is expected).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) errorf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.event >= 0 {
		return fmt.Errorf("trace: decode: event %d at byte %d: %s", d.event, d.pos, msg)
	}
	return fmt.Errorf("trace: decode: byte %d: %s", d.pos, msg)
}

func (d *decoder) syntaxError(context string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("invalid character %q %s", d.data[d.pos], context)
}

// typeError reports a value of the wrong kind for field, or a syntax error
// if no value starts at d.pos.
func (d *decoder) typeError(field, want string) error {
	got := "number"
	switch c := d.peek(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c != '-' && !isDigit(c):
		return d.syntaxError("looking for beginning of value")
	}
	return d.errorf("%s: want %s, got %s", field, want, got)
}

// DecodeAll runs decode(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns the traces in index order. If any call fails it
// returns the error of the lowest failing index; no index above a failure
// is started after it.
func DecodeAll(n int, decode func(i int) (*Trace, error)) ([]*Trace, error) {
	out := make([]*Trace, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	workers := min(n, runtime.GOMAXPROCS(0))
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			// Indices are handed out in order, so every index below a
			// failing one has started and the lowest failure is found.
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i], errs[i] = decode(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
