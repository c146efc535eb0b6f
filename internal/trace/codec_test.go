package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lumos"
	"lumos/internal/trace"
)

// profiledFile is one rank trace of the profiled corpus, as the reflective
// encoder wrote it.
type profiledFile struct {
	name string
	data []byte
	// nativeEqual records whether EncodeJSON wrote the same bytes as the
	// reflective encoder for the profiled trace.
	nativeEqual bool
}

// profileSet profiles one deployment (TP2×PP2×DPdp, 4 microbatches) of
// arch under sched on the simulated substrate and encodes every rank trace
// with the reflective encoder.
func profileSet(name string, arch lumos.Arch, dp int, sched string) ([]profiledFile, error) {
	cfg, err := lumos.DeploymentConfig(arch, 2, 2, dp)
	if err != nil {
		return nil, err
	}
	cfg.Microbatches = 4
	if cfg, err = lumos.WithScheduleSpec(cfg, sched); err != nil {
		return nil, err
	}
	m, err := lumos.New().Profile(context.Background(), cfg, 1)
	if err != nil {
		return nil, err
	}
	var files []profiledFile
	for _, t := range m.Ranks {
		var oracle, native bytes.Buffer
		if err := trace.ReflectEncodeJSON(&oracle, t); err != nil {
			return nil, err
		}
		if err := trace.EncodeJSON(&native, t); err != nil {
			return nil, err
		}
		files = append(files, profiledFile{
			name:        fmt.Sprintf("%s-2x2x%d-%s/rank_%d.json", name, dp, sched, t.Rank),
			data:        oracle.Bytes(),
			nativeEqual: bytes.Equal(oracle.Bytes(), native.Bytes()),
		})
	}
	return files, nil
}

// profiledCorpus holds the fig7 (GPT-3 15B) and fig8 (GPT-3 V3) bases at
// TP2×PP2×DP{1,2} under 1F1B and ZB-H1.
var profiledCorpus = sync.OnceValues(func() ([]profiledFile, error) {
	var files []profiledFile
	for _, arch := range []struct {
		name string
		arch lumos.Arch
	}{{"15b", lumos.GPT3_15B()}, {"v3", lumos.GPT3_V3()}} {
		for _, dp := range []int{1, 2} {
			for _, sched := range []string{"1f1b", "zb-h1"} {
				set, err := profileSet(arch.name, arch.arch, dp, sched)
				if err != nil {
					return nil, err
				}
				files = append(files, set...)
			}
		}
	}
	return files, nil
})

func corpus(tb testing.TB) []profiledFile {
	tb.Helper()
	files, err := profiledCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// TestCodecMatchesReflect is the differential test over the profiled
// corpus: both decoders return deeply equal traces, and both encoders
// write the same bytes for the profiled traces and for the decoded ones.
func TestCodecMatchesReflect(t *testing.T) {
	for _, f := range corpus(t) {
		if !f.nativeEqual {
			t.Errorf("%s: EncodeJSON output differs from the reflective encoder's", f.name)
		}
		want, err := trace.ReflectDecodeJSON(bytes.NewReader(f.data))
		if err != nil {
			t.Fatalf("%s: reflective decode: %v", f.name, err)
		}
		got, err := trace.ParseJSON(f.data)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded traces differ", f.name)
		}
		var buf bytes.Buffer
		if err := trace.EncodeJSON(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), f.data) {
			t.Fatalf("%s: re-encoding the decoded trace changed its bytes", f.name)
		}
	}
}

// TestEncodeMatchesReflectOnEdgeValues covers what profiled traces never
// hold: names needing every kind of escape, invalid UTF-8, unknown enum
// values and extreme timestamps. Ts/Dur are integer nanoseconds, so their
// microsecond floats stay inside encoding/json's 'f' range; the 'e'
// boundaries themselves are checked on the float formatter directly.
func TestEncodeMatchesReflectOnEdgeValues(t *testing.T) {
	names := []string{
		`<script>&"quoted"\back</script>`,
		"line\u2028sep\u2029para",
		"bad\xffutf8\xc3",
		"ctl\x00\x01\x1f\x7f\b\f\n\r\t",
		"ünïcödé ✓ 😀",
		"",
	}
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c))
	}
	names = append(names, string(all))
	tr := trace.New(-7)
	tr.Meta["k<&>"] = "v\u2028\xfe"
	tr.Meta["a"] = ""
	extremes := []int64{0, 1, -1, 999, 1000, 1001, 1 << 53, 1<<63 - 1, -1 << 63}
	for i, name := range names {
		for j, ts := range extremes {
			tr.Add(trace.Event{
				Name: name, Cat: trace.Category(i % 7), Ts: ts, Dur: extremes[(j+i)%len(extremes)],
				PID: -i, TID: j, Correlation: int64(j - 3), Stream: j - 2, Runtime: trace.RuntimeKind(j),
				CUDAEvent: int64(i), Class: trace.KernelClass(j + i), Comm: trace.CommKind(j % 9),
				CommID: -1, CommSeq: 1 << 40, CommBytes: int64(j), PeerRank: i - 2,
				Layer: j - 1, Microbatch: i - 1, Pass: trace.PassKind(j % 5), FLOPs: int64(j - 4), Bytes: 1 << 62,
			})
		}
	}
	var got, want bytes.Buffer
	if err := trace.EncodeJSON(&got, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.ReflectEncodeJSON(&want, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("encodings differ at byte %d:\n got: %.80q\nwant: %.80q", i, g[i:], w[i:])
	}
}

// decodeCase is one row of the decode table. Error rows name the event
// index the error must report (-1 for none) and a marker whose offset in
// the input is the byte the error must report ("" for the end of input).
type decodeCase struct {
	name    string
	in      string
	wantErr bool
	event   int
	at      string
	check   func(*trace.Trace) error
}

const okEvent = `{"name":"a","cat":"cpu_op","ph":"X","ts":1,"dur":2,"pid":0,"tid":1}`

func events(evs ...string) string {
	return `{"schemaVersion":1,"traceEvents":[` + strings.Join(evs, ",") + `]}`
}

var decodeCases = []decodeCase{
	{name: "truncated", in: events(okEvent, okEvent)[:120], wantErr: true, event: 1},
	{name: "bad number", in: events(`{"name":"a","cat":"cpu_op","ts":1.e3}`), wantErr: true, event: 0, at: "e3}"},
	{name: "leading zero", in: events(okEvent, `{"cat":"cpu_op","dur":012}`), wantErr: true, event: 1, at: "12}"},
	{name: "fractional pid", in: events(okEvent, `{"name":"a","cat":"cpu_op","pid": 1.5}`), wantErr: true, event: 1, at: "1.5"},
	{name: "non-object event", in: events(okEvent, okEvent, `"x"`), wantErr: true, event: 2, at: `"x"`},
	{name: "array event", in: events(`[]`), wantErr: true, event: 0, at: "[]"},
	{name: "string ts", in: events(`{"cat":"cpu_op","ts":"1"}`), wantErr: true, event: 0, at: `"1"}`},
	{name: "args not object", in: events(`{"cat":"cpu_op","args":[1]}`), wantErr: true, event: 0, at: "[1]"},
	{name: "args number overflow", in: events(`{"cat":"cpu_op","args":{"x":{"y":[1e400]}}}`), wantErr: true, event: 0, at: "1e400"},
	{name: "ts overflow", in: events(`{"cat":"cpu_op","ts":-1e309}`), wantErr: true, event: 0, at: "-1e309"},
	{name: "bad escape", in: events(`{"name":"a\x"}`), wantErr: true, event: 0, at: `x"}`},
	{name: "raw control char", in: events("{\"name\":\"a\tb\"}"), wantErr: true, event: 0, at: "\tb"},
	{name: "trailing comma", in: events(okEvent + `,`), wantErr: true, event: 1, at: "]}"},
	{name: "string rank", in: `{"distributedInfo_rank":"3","traceEvents":[]}`, wantErr: true, event: -1, at: `"3"`},
	{name: "metadata number", in: `{"metadata":{"k":1},"traceEvents":[]}`, wantErr: true, event: -1, at: "1}"},
	{name: "events object", in: `{"traceEvents":{}}`, wantErr: true, event: -1, at: "{}}"},
	{name: "top-level array", in: `[]`, wantErr: true, event: -1, at: "[]"},
	{name: "empty", in: ``, wantErr: true, event: -1},
	{name: "garbage", in: ` x`, wantErr: true, event: -1, at: "x"},
	{name: "unclosed", in: `{"traceEvents":[]`, wantErr: true, event: -1},

	{name: "escaped and non-ASCII names", in: events(
		`{"name":"\u0061ten::mm \"q\" \ud83d\ude00","cat":"cpu_op"}`,
		`{"name":"ünï ✓","cat":"cpu_op"}`,
		"{\"name\":\"bad\xff\",\"cat\":\"cpu_op\"}"),
		check: func(tr *trace.Trace) error {
			if len(tr.Events) != 3 || tr.Events[0].Name != "aten::mm \"q\" 😀" || tr.Events[1].Name != "ünï ✓" || tr.Events[2].Name != "bad\uFFFD" {
				return fmt.Errorf("names %q", eventNames(tr))
			}
			return nil
		}},
	{name: "null args", in: events(`{"name":"k","cat":"kernel","args":null}`),
		check: func(tr *trace.Trace) error {
			if e := tr.Events[0]; e.Stream != -1 || e.Layer != -1 || e.PeerRank != -1 || e.Class != trace.KCUnknown {
				return fmt.Errorf("defaults lost: %+v", e)
			}
			return nil
		}},
	{name: "string layer", in: events(`{"cat":"cpu_op","args":{"layer":"3","microbatch":"x","stream":" 4"}}`),
		check: func(tr *trace.Trace) error {
			if e := tr.Events[0]; e.Layer != 3 || e.Microbatch != -1 || e.Stream != -1 {
				return fmt.Errorf("layer %d microbatch %d stream %d", e.Layer, e.Microbatch, e.Stream)
			}
			return nil
		}},
	{name: "non-X phases", in: events(
		`{"name":"b","cat":"cpu_op","ph":"B","ts":1}`, `{"name":"i","cat":"cpu_op","ph":"i"}`,
		`{"name":"m","ph":"M","args":{"name":"proc"}}`, `{"name":"x","cat":"cpu_op","ph":"X"}`,
		`{"name":"none","cat":"cpu_op"}`, `null`),
		check: func(tr *trace.Trace) error {
			if got := eventNames(tr); !reflect.DeepEqual(got, []string{"x", "none"}) {
				return fmt.Errorf("kept %q", got)
			}
			return nil
		}},
	{name: "nested unknown args", in: events(
		`{"cat":"kernel","args":{"extra":{"a":[1,2.5e10,{"b":null}],"c":"d"},"layer":2,"flops":1e3,"kernel_class":"gemm","pass":1}}`),
		check: func(tr *trace.Trace) error {
			if e := tr.Events[0]; e.Layer != 2 || e.FLOPs != 1000 || e.Class != trace.KCGEMM || e.Pass != trace.PassNone {
				return fmt.Errorf("args %+v", e)
			}
			return nil
		}},
	{name: "duplicate keys", in: `{"distributedInfo_rank":1,"distributedInfo_rank":null,"metadata":{"a":"1"},"metadata":{"b":null},` +
		`"traceEvents":[5],"traceEvents":[{"cat":"cpu_op","pid":4,"pid":null,"args":{"layer":1},"args":{"microbatch":2},"args":null,"args":{"stream":3}}]}`,
		check: func(tr *trace.Trace) error {
			e := tr.Events[0]
			if tr.Rank != 1 || len(tr.Meta) != 2 || e.PID != 4 || e.Layer != -1 || e.Microbatch != -1 || e.Stream != 3 {
				return fmt.Errorf("rank %d meta %v event %+v", tr.Rank, tr.Meta, e)
			}
			return nil
		}},
	{name: "case-folded keys", in: `{"DISTRIBUTEDINFO_RANK":2,"ſchemaVersion":1,"traceEvents":[{"CAT":"cpu_op","Name":"n","args":{"Layer":5}}]}`,
		check: func(tr *trace.Trace) error {
			if e := tr.Events[0]; tr.Rank != 2 || e.Name != "n" || e.Layer != -1 {
				return fmt.Errorf("rank %d event %+v", tr.Rank, e)
			}
			return nil
		}},
	{name: "top-level null", in: ` null`},
	{name: "trailing data", in: `{"traceEvents":[]} trailing`},
	{name: "empty events", in: `{"traceEvents":[]}`},
}

func eventNames(tr *trace.Trace) []string {
	var out []string
	for _, e := range tr.Events {
		out = append(out, e.Name)
	}
	return out
}

// TestDecodeTable checks each row against the reflective decoder and, for
// errors, that the message locates the fault.
func TestDecodeTable(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			want, werr := trace.ReflectDecodeJSON(strings.NewReader(c.in))
			got, err := trace.ParseJSON([]byte(c.in))
			if (err != nil) != c.wantErr || (werr != nil) != c.wantErr {
				t.Fatalf("err = %v, reflective err = %v, want error %v", err, werr, c.wantErr)
			}
			if c.wantErr {
				off := len(c.in)
				if c.at != "" {
					off = strings.Index(c.in, c.at)
				}
				pos := fmt.Sprintf("byte %d:", off)
				if c.event >= 0 {
					pos = fmt.Sprintf("event %d at byte %d:", c.event, off)
				}
				if !strings.Contains(err.Error(), pos) {
					t.Fatalf("error %q does not name %q", err, pos)
				}
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded\n %+v\nwant\n %+v", got, want)
			}
			if c.check != nil {
				if err := c.check(got); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeJSON requires both decoders to agree on error vs success and,
// when both succeed, on the decoded trace and its encoding. It is seeded
// with the decode table and with rank 0 of each profiled trace set; more
// multi-megabyte seeds would spend a short fuzz run gathering their
// baseline coverage (TestCodecMatchesReflect covers every rank).
func FuzzDecodeJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.in))
	}
	for _, pf := range corpus(f) {
		if strings.HasSuffix(pf.name, "/rank_0.json") {
			f.Add(pf.data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := trace.ReflectDecodeJSON(bytes.NewReader(data))
		got, err := trace.ParseJSON(data)
		if (err != nil) != (werr != nil) {
			t.Fatalf("err = %v, reflective err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n %+v\nwant\n %+v", got, want)
		}
		var a, b bytes.Buffer
		if err := trace.EncodeJSON(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := trace.ReflectEncodeJSON(&b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("encodings differ:\n got %q\nwant %q", a.Bytes(), b.Bytes())
		}
	})
}

// BenchmarkCodec compares the native codec with the reflective oracle on
// the rank files of a profiled GPT-3 15B TP2×PP2×DP1 trace set (4
// microbatches). Decoding reads each file from disk as LoadTraces does
// (native) and as it used to (reflective); bytes/op is the set's size.
func BenchmarkCodec(b *testing.B) {
	dir := b.TempDir()
	var (
		paths  []string
		traces []*trace.Trace
		size   int64
	)
	set, err := profileSet("15b", lumos.GPT3_15B(), 1, "1f1b")
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range set {
		p := filepath.Join(dir, filepath.Base(f.name))
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			b.Fatal(err)
		}
		tr, err := trace.ParseJSON(f.data)
		if err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
		traces = append(traces, tr)
		size += int64(len(f.data))
	}
	decoders := map[string]func(path string) (*trace.Trace, error){
		"native": func(path string) (*trace.Trace, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return trace.ParseJSON(data)
		},
		"reflect": func(path string) (*trace.Trace, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return trace.ReflectDecodeJSON(f)
		},
	}
	encoders := map[string]func(io.Writer, *trace.Trace) error{
		"native":  trace.EncodeJSON,
		"reflect": trace.ReflectEncodeJSON,
	}
	for _, impl := range []string{"native", "reflect"} {
		b.Run("decode/"+impl, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range paths {
					if _, err := decoders[impl](p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	for _, impl := range []string{"native", "reflect"} {
		b.Run("encode/"+impl, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				for _, tr := range traces {
					if err := encoders[impl](io.Discard, tr); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func TestDecodeAllKeepsOrderAndLowestError(t *testing.T) {
	for _, failing := range [][]int{nil, {5}, {3, 5}, {0, 7}, {6, 2}} {
		bad := map[int]bool{}
		lowest := -1
		for _, i := range failing {
			bad[i] = true
			if lowest < 0 || i < lowest {
				lowest = i
			}
		}
		got, err := trace.DecodeAll(8, func(i int) (*trace.Trace, error) {
			if bad[i] {
				return nil, fmt.Errorf("fail %d", i)
			}
			return trace.New(i), nil
		})
		if lowest >= 0 {
			if err == nil || err.Error() != fmt.Sprintf("fail %d", lowest) {
				t.Fatalf("failing %v: err = %v, want fail %d", failing, err, lowest)
			}
			continue
		}
		if err != nil || len(got) != 8 {
			t.Fatalf("err = %v, %d traces", err, len(got))
		}
		for i, tr := range got {
			if tr.Rank != i {
				t.Fatalf("trace %d has rank %d", i, tr.Rank)
			}
		}
	}
}
