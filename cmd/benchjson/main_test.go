package main

import "testing"

func TestParseLineLabels(t *testing.T) {
	cases := []struct {
		line     string
		strategy string
		space    string
		fabric   string
		schedule string
		cache    string
	}{
		{
			line:     "BenchmarkPlan_BnBVsExhaustive/strategy=exhaustive-8 	      20	  52047619 ns/op	       374.2 best-ms",
			strategy: "exhaustive",
		},
		{
			// Composite label: the strategy segment is followed by a space
			// segment, so neither regex may demand end-of-name.
			line:     "BenchmarkPlan_BranchAndBound/strategy=bnb/space=131072-8 	       1	1167756151 ns/op	        65.00 simulated-points",
			strategy: "bnb",
			space:    "131072",
		},
		{
			line:   "BenchmarkSweep_FabricCampaign/fabric=nvl72-8 	      20	  1000000 ns/op",
			fabric: "nvl72",
		},
		{
			line:     "BenchmarkSweep_ScheduleCampaign/schedule=zb-h1-8 	      20	  1000000 ns/op",
			schedule: "zb-h1",
		},
		{
			line:  "BenchmarkSweep_DiskCacheWarmStart/cache=warm-8 	      20	  1000000 ns/op",
			cache: "warm",
		},
	}
	for _, c := range cases {
		r, ok := parseLine(c.line)
		if !ok {
			t.Errorf("parseLine rejected %q", c.line)
			continue
		}
		if r.Strategy != c.strategy {
			t.Errorf("%s: strategy = %q, want %q", r.Name, r.Strategy, c.strategy)
		}
		if r.Space != c.space {
			t.Errorf("%s: space = %q, want %q", r.Name, r.Space, c.space)
		}
		if r.Fabric != c.fabric {
			t.Errorf("%s: fabric = %q, want %q", r.Name, r.Fabric, c.fabric)
		}
		if r.Schedule != c.schedule {
			t.Errorf("%s: schedule = %q, want %q", r.Name, r.Schedule, c.schedule)
		}
		if r.Cache != c.cache {
			t.Errorf("%s: cache = %q, want %q", r.Name, r.Cache, c.cache)
		}
	}
}
