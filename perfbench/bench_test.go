package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpec checks BENCHMARK.json against the workloads this program runs
// and the naming rules for metrics.
func TestSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !validName.MatchString(name) || !validUnit.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q (unit %q)", name, unit)
		}
		seen[name] = true
	}
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and requires exactly the metrics BENCHMARK.json names, with their
// units, and no failed op or check.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := make(map[string]string)
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			r, err := newRunner(w.Name, 7, 1, traced)
			if err != nil {
				t.Fatal(err)
			}
			res, err := workloads[w.Name](context.Background(), r)
			if cerr := r.close(); cerr != nil {
				t.Error(cerr)
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed", w.Name, traced, res.failed, res.attempted)
			}
			got := make(map[string]bool)
			for _, m := range res.metrics {
				if want[m.name] != m.unit {
					t.Errorf("%s (traced %v): unexpected metric %q unit %q", w.Name, traced, m.name, m.unit)
				}
				got[m.name] = true
			}
			for name := range want {
				if !got[name] {
					t.Errorf("%s (traced %v): metric %q missing", w.Name, traced, name)
				}
			}
		}
	}
}
