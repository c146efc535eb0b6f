package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// jsonEvent mirrors the Chrome trace-event / Kineto on-disk schema. Times
// are fractional microseconds.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type jsonTrace struct {
	SchemaVersion int               `json:"schemaVersion"`
	Rank          int               `json:"distributedInfo_rank"`
	Meta          map[string]string `json:"metadata,omitempty"`
	TraceEvents   []jsonEvent       `json:"traceEvents"`
}

// ReflectEncodeJSON is the reflective encoder EncodeJSON replaced, kept
// verbatim as the oracle its output must match byte for byte.
func ReflectEncodeJSON(w io.Writer, t *Trace) error {
	jt := jsonTrace{SchemaVersion: 1, Rank: t.Rank, Meta: t.Meta}
	jt.TraceEvents = make([]jsonEvent, 0, len(t.Events))
	for i := range t.Events {
		e := &t.Events[i]
		je := jsonEvent{
			Name: e.Name,
			Cat:  e.Cat.String(),
			Ph:   "X",
			Ts:   usFromNs(e.Ts),
			Dur:  usFromNs(e.Dur),
			PID:  e.PID,
			TID:  e.TID,
		}
		args := map[string]any{}
		if e.Correlation != 0 {
			args["correlation"] = e.Correlation
		}
		if e.Stream >= 0 && (e.Cat == CatCUDARuntime || e.IsGPU()) {
			args["stream"] = e.Stream
		}
		if e.Runtime != RuntimeNone {
			args["cbid"] = int(e.Runtime)
		}
		if e.CUDAEvent != 0 {
			args["cuda_event"] = e.CUDAEvent
		}
		if e.Cat == CatKernel {
			args["kernel_class"] = e.Class.String()
			if e.Comm != CommNone {
				args["comm_kind"] = int(e.Comm)
				args["comm_id"] = e.CommID
				args["comm_seq"] = e.CommSeq
				args["comm_bytes"] = e.CommBytes
				if e.PeerRank >= 0 {
					args["peer_rank"] = e.PeerRank
				}
			}
		}
		if e.Layer >= 0 {
			args["layer"] = e.Layer
		}
		if e.Microbatch >= 0 {
			args["microbatch"] = e.Microbatch
		}
		if e.Pass != PassNone {
			args["pass"] = e.Pass.String()
		}
		if e.FLOPs > 0 {
			args["flops"] = e.FLOPs
		}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		if len(args) > 0 {
			je.Args = args
		}
		jt.TraceEvents = append(jt.TraceEvents, je)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&jt); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return bw.Flush()
}

func argInt(args map[string]any, key string, def int64) int64 {
	v, ok := args[key]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return int64(x)
	case json.Number:
		n, err := x.Int64()
		if err != nil {
			return def
		}
		return n
	case string:
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return def
		}
		return n
	}
	return def
}

func argString(args map[string]any, key string) string {
	if v, ok := args[key].(string); ok {
		return v
	}
	return ""
}

// ReflectDecodeJSON is the reflective decoder DecodeJSON replaced, kept
// verbatim as the oracle it must match on every input.
// Events with phases other than complete ("X") are ignored, as Lumos only
// models duration events.
func ReflectDecodeJSON(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))
	dec.UseNumber()
	var jt struct {
		SchemaVersion int               `json:"schemaVersion"`
		Rank          int               `json:"distributedInfo_rank"`
		Meta          map[string]string `json:"metadata"`
		TraceEvents   []json.RawMessage `json:"traceEvents"`
	}
	if err := dec.Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	t := New(jt.Rank)
	if jt.Meta != nil {
		t.Meta = jt.Meta
	}
	t.Events = make([]Event, 0, len(jt.TraceEvents))
	for _, raw := range jt.TraceEvents {
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: decode event: %w", err)
		}
		if je.Ph != "X" && je.Ph != "" {
			continue
		}
		cat, err := ParseCategory(je.Cat)
		if err != nil {
			// Unknown categories (e.g. python_function) are skipped, as
			// Kineto traces often include records Lumos does not model.
			continue
		}
		e := Event{
			Name: je.Name,
			Cat:  cat,
			Ts:   nsFromUs(je.Ts),
			Dur:  nsFromUs(je.Dur),
			PID:  je.PID,
			TID:  je.TID,

			Stream:     -1,
			PeerRank:   -1,
			Layer:      -1,
			Microbatch: -1,
		}
		if je.Args != nil {
			e.Correlation = argInt(je.Args, "correlation", 0)
			e.Stream = int(argInt(je.Args, "stream", -1))
			e.Runtime = RuntimeKind(argInt(je.Args, "cbid", 0))
			e.CUDAEvent = argInt(je.Args, "cuda_event", 0)
			e.Layer = int(argInt(je.Args, "layer", -1))
			e.Microbatch = int(argInt(je.Args, "microbatch", -1))
			e.FLOPs = argInt(je.Args, "flops", 0)
			e.Bytes = argInt(je.Args, "bytes", 0)
			switch argString(je.Args, "pass") {
			case "forward":
				e.Pass = PassForward
			case "backward":
				e.Pass = PassBackward
			case "optimizer":
				e.Pass = PassOptimizer
			}
			if cat == CatKernel {
				e.Class = parseKernelClass(argString(je.Args, "kernel_class"))
				e.Comm = CommKind(argInt(je.Args, "comm_kind", 0))
				e.CommID = argInt(je.Args, "comm_id", 0)
				e.CommSeq = argInt(je.Args, "comm_seq", 0)
				e.CommBytes = argInt(je.Args, "comm_bytes", 0)
				e.PeerRank = int(argInt(je.Args, "peer_rank", -1))
			}
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

func parseKernelClass(s string) KernelClass {
	for i, n := range kernelClassNames {
		if n == s {
			return KernelClass(i)
		}
	}
	return KCUnknown
}
