package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lumos"
	"lumos/internal/planner"
	"lumos/internal/server"
)

// planDeploy is the base both request paths plan against: `lumos plan`
// builds it from its deployment flags, lumosd from the registered profile.
var planDeploy = server.Deployment{Model: "15b", TP: 1, PP: 1, DP: 1, Microbatches: 1}

// planSurfaces is the two ways into the planner: the CLI's base config
// and a lumosd instance holding a profile "p" of the same deployment.
type planSurfaces struct {
	base lumos.Config
	srv  *server.Server
}

func newPlanSurfaces(t *testing.T) *planSurfaces {
	t.Helper()
	base, err := buildConfig(planDeploy.Model, planDeploy.TP, planDeploy.PP, planDeploy.DP, planDeploy.Microbatches)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(42)
	p := &planSurfaces{base: base, srv: server.New(server.Config{Seed: seed})}
	if code, msg := p.post(t, "/v1/profiles", server.ProfileRequest{Name: "p", Deployment: planDeploy, Seed: &seed}); code != http.StatusCreated {
		t.Fatalf("registering profile: %d %s", code, msg)
	}
	return p
}

// post sends body to lumosd and returns the status and, for errors, the
// error text.
func (p *planSurfaces) post(t *testing.T, path string, body any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(data)))
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(rec.Body.Bytes(), &e)
	return rec.Code, e.Error
}

// built is what the shared parser makes of one request: the space and the
// planner options it applies.
type built struct {
	space lumos.Space
	opts  planner.Options
}

func build(base lumos.Config, req *server.PlanRequest) (built, error) {
	space, err := req.Space(base)
	if err != nil {
		return built{}, err
	}
	opts, err := req.Options()
	if err != nil {
		return built{}, err
	}
	b := built{space: space}
	for _, opt := range opts {
		opt(&b.opts)
	}
	return b, nil
}

// cli parses args as `lumos plan` does and builds the request.
func (p *planSurfaces) cli(t *testing.T, args []string) (built, error) {
	t.Helper()
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var req server.PlanRequest
	planFlags(fs, &req)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return build(p.base, &req)
}

// check feeds one input through both surfaces. An invalid input must fail
// the CLI and draw a 400 from POST /v1/plan with the same message; a valid
// one (body != "") must build the same space and options from the flags
// as from the JSON body.
func (p *planSurfaces) check(t *testing.T, args []string, body, wantErr string) built {
	t.Helper()
	got, cliErr := p.cli(t, args)
	if wantErr != "" {
		if cliErr == nil || !strings.Contains(cliErr.Error(), wantErr) {
			t.Fatalf("CLI %q: error %v, want one containing %q", args, cliErr, wantErr)
		}
	} else if cliErr != nil {
		t.Fatalf("CLI %q: %v", args, cliErr)
	}
	if body == "" {
		return got
	}
	var req server.PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	req.Profile = "p"
	if wantErr != "" {
		code, msg := p.post(t, "/v1/plan", req)
		if code != http.StatusBadRequest || msg != cliErr.Error() {
			t.Fatalf("POST %s = %d %q, want 400 %q", body, code, msg, cliErr.Error())
		}
		return got
	}
	fromJSON, err := build(p.base, &req)
	if err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
	if !reflect.DeepEqual(got, fromJSON) {
		t.Fatalf("flags %q and body %s build different requests:\n%+v\nvs\n%+v", args, body, got, fromJSON)
	}
	return got
}

// TestPlanRequestParity feeds the same inputs to `lumos plan` flags and
// to a POST /v1/plan body: both must reject the same inputs with the same
// message and menu, and build identical spaces and planner options from
// the rest.
func TestPlanRequestParity(t *testing.T) {
	p := newPlanSurfaces(t)
	for _, c := range []struct {
		name     string
		args     []string
		body     string
		strategy string // the strategy a valid input selects
		err      string
	}{
		{"defaults", nil, `{}`, "bnb", ""},
		{"auto", []string{"-strategy", "auto"}, `{"strategy":"auto"}`, "bnb", ""},
		{"padded mixed-case bnb", []string{"-strategy", " BnB "}, `{"strategy":" BnB "}`, "bnb", ""},
		{"full space", []string{
			"-pp-range", "1,2", "-dp-range", "1,2", "-mb-range", "2,4",
			"-schedule", "1f1b,ZB-H1", "-fabric", "flat,spine4", "-degrade", "1,0.5",
			"-strategy", "exhaustive", "-budget", "3", "-gpu-mem-gib", "141", "-zero", "1",
		}, `{"pp_range":[1,2],"dp_range":[1,2],"mb_range":[2,4],
			"schedules":["1f1b","ZB-H1"],"fabrics":["flat","spine4"],"degrade":[1,0.5],
			"strategy":"exhaustive","budget":3,"gpu_mem_gib":141,"zero":1}`, "exhaustive", ""},
		{"beam", []string{"-strategy", "beam"}, `{"strategy":"beam"}`, "",
			`unknown strategy "beam" (want auto|exhaustive|bnb)`},
		{"halving", []string{"-strategy", "halving"}, `{"strategy":"halving"}`, "",
			`unknown strategy "halving" (want auto|exhaustive|bnb)`},
		{"zero 3", []string{"-zero", "3"}, `{"zero":3}`, "", "bad ZeRO stage 3"},
		{"bad fabric", []string{"-fabric", "warpdrive"}, `{"fabrics":["warpdrive"]}`, "", "warpdrive"},
		{"bad schedule", []string{"-schedule", "llm"}, `{"schedules":["llm"]}`, "", "llm"},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := p.check(t, c.args, c.body, c.err)
			if c.err == "" && b.opts.Strategy.Name() != c.strategy {
				t.Fatalf("strategy %q, want %q", b.opts.Strategy.Name(), c.strategy)
			}
		})
	}
}

// TestPlanMemoryCapacityValidation pins the GPU capacity check both
// surfaces share: non-finite values, sizes that overflow int64 bytes and
// sizes under one byte are rejected (a 400 on POST /v1/plan) instead of
// converting to a wrapped or zero capacity; everything else converts
// exactly. NaN and infinities have no JSON spelling, so they only reach
// the CLI.
func TestPlanMemoryCapacityValidation(t *testing.T) {
	p := newPlanSurfaces(t)
	const bad = "bad GPU memory capacity"
	for _, c := range []struct {
		flag, body string
		err        string
		bytes      int64
	}{
		{"1e10", `{"gpu_mem_gib":1e10}`, bad, 0},
		{"8589934592", `{"gpu_mem_gib":8589934592}`, bad, 0}, // exactly 2^63 bytes
		{"1e-12", `{"gpu_mem_gib":1e-12}`, bad, 0},
		{"-1", `{"gpu_mem_gib":-1}`, bad, 0},
		{"inf", "", bad, 0},
		{"-inf", "", bad, 0},
		{"NaN", "", bad, 0},
		{"0", `{"gpu_mem_gib":0}`, "", 80 << 30},
		{"80", `{"gpu_mem_gib":80}`, "", 80 << 30},
		{"1e-9", `{"gpu_mem_gib":1e-9}`, "", 1},
		{"8589934591", `{"gpu_mem_gib":8589934591}`, "", math.MaxInt64 - (1<<30 - 1)},
	} {
		t.Run(c.flag, func(t *testing.T) {
			b := p.check(t, []string{"-gpu-mem-gib", c.flag}, c.body, c.err)
			if c.err == "" && b.opts.Mem.GPUMemBytes != c.bytes {
				t.Fatalf("capacity %d bytes, want %d", b.opts.Mem.GPUMemBytes, c.bytes)
			}
		})
	}
}
