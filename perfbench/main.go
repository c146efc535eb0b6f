// Command perfbench is lumos's end-to-end benchmark. It drives three seeded
// workloads through lumos's public entry points — the CLI planning path,
// what-if campaigns against a prepared profile, and the lumosd handler
// behind a loopback HTTP server — checks their outputs, and prints either
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1): a table with units and sample counts, then one JSON
// result line.
//
//	bash perfbench/run.sh --workload cli-plan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 3
//
// "all" runs every workload in its own child process, so one workload's
// peak RSS never leaks into another's.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *runner) (*result, error){
	"cli-plan":      runCLIPlan,
	"whatif-retime": runWhatIf,
	"serve-mixed":   runServe,
}

func main() {
	name := flag.String("workload", "", "cli-plan | whatif-retime | serve-mixed | all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured duration of one run")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	r, err := newRunner(*name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), r)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout, *name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// runAll re-executes this binary once per workload with the same flags and
// forwards each child's output; it fails if any child fails.
func runAll(seed uint64, seconds float64, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, n := range []string{"cli-plan", "whatif-retime", "serve-mixed"} {
		cmd := exec.Command(self, "--workload", n,
			"--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(traced))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// metric is one reported value with its unit and the number of samples it
// was computed from.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// result is one run's outcome: ops attempted and failed (a failed output
// check counts as a failed op), whether every check passed, and the
// metrics in report order.
type result struct {
	attempted, failed int
	metrics           []metric
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

// write prints the human-readable table and then the JSON result line.
func (r *result) write(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d ops attempted, %d failed, fail_ratio %s\n",
		workload, r.attempted, r.failed, strconv.FormatFloat(r.failRatio(), 'g', -1, 64))
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "%-28s %16.6g %-10s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// failRatio is failed ops over attempted ops.
func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}
