// Command perfbench is connlab's benchmark. It drives three workloads
// through the public API of campaign, scenario and the layer packages,
// checks every verdict against connman.scn, and prints one JSON object
// as its last line of output:
//
//	go build -o perfbench . && ./perfbench --workload fleet-recycle --seed 20190624 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it decomposes each attempt into the public calls the
// campaign engine makes, times each call as a span, and reports
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"connlab/internal/scenario"
)

// defaultSeed is the workload seed used while the benchmark was written.
// README.md also names a held-out seed that was never used for tuning.
const defaultSeed = 20190624

// setupRounds is how many rounds an untraced run is cut into. Each round
// starts with a fresh set-up; setup_s is the median of their times.
const setupRounds = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0|1")
		return 2
	}
	// One op at a time on one P. On a host of a few vCPUs, a second
	// client or worker measures the Go scheduler, the vCPU wake-ups of an idle
	// P and the other vCPU's steal rather than the lab.
	runtime.GOMAXPROCS(1)
	spec, err := scenario.Load("connman")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := loadWorkload(*name, spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := &oracle{spec: spec, reconSeed: reconSeed(*seed)}
	workdir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	defer os.RemoveAll(workdir)
	fmt.Fprintf(stdout, "workload %s seed %d recon_seed %d cells %d gomaxprocs %d %s\n",
		w.name, *seed, o.reconSeed, len(w.cells), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "why: %s\n", w.why)

	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedResult(stdout, w, o, *seed, d, workdir)
	} else {
		res, err = endToEnd(stdout, w, o, *seed, d, workdir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// endToEnd is the untraced run: a warm-up round, then setupRounds rounds
// of a fresh set-up followed by closed-loop ops.
func endToEnd(out io.Writer, w *workload, o *oracle, seed int64, d time.Duration, workdir string) (*result, error) {
	times, ps, err := rounds(w, o, seed, setupRounds, d, workdir)
	if err != nil {
		return nil, err
	}
	// Every time metric is scaled to the reference host speed (probe.go);
	// the raw figures are printed alongside.
	raw := &phase{}
	var setupT, lat []time.Duration
	var busy time.Duration
	for r, q := range ps {
		f := q.speed()
		ql := pooled(q.ops)
		fmt.Fprintf(out, "round %2d: probe x%.3f; raw setup %.4f s, %d ops, %.2f ops/s, p50 %.4f ms, p%g %.4f ms\n",
			r+1, f, times[r].Seconds(), len(ql), q.rate(), ms(percentile(ql, 50)), w.tailPct, ms(percentile(ql, w.tailPct)))
		nl, nb := q.normalized()
		lat = append(lat, nl...)
		busy += nb
		setupT = append(setupT, scale(times[r], f))
		raw.append(q)
	}
	printPhase(out, "raw", w, raw)
	setup, rate := median(setupT).Seconds(), float64(len(lat))/busy.Seconds()
	p50, tail := ms(percentile(lat, 50)), ms(percentile(lat, w.tailPct))
	fmt.Fprintf(out, "normalized: setup %.4f s, %.2f ops/s, p50 %.4f ms, p%g %.4f ms\n", setup, rate, p50, w.tailPct, tail)
	res := newResult(&raw.tally)
	res.Correct = res.Correct && len(lat) > 0
	res.Metrics = map[string]metric{
		"setup_s":         {setup, "s"},
		"ops_per_s":       {rate, "1/s"},
		"op_p50_ms":       {p50, "ms"},
		"op_tail_ms":      {tail, "ms"},
		"alloc_kb_per_op": {float64(raw.alloc) / float64(max(1, raw.attempted)) / 1e3, "kB"},
	}
	return res, nil
}

// newResult starts a result from a tally's counts.
func newResult(t *tally) *result {
	return &result{Correct: t.failed == 0, Attempted: max(1, t.attempted), Failed: t.failed}
}

// printPhase prints a phase's counts, per-second drift and latency
// percentiles over all its passed ops.
func printPhase(out io.Writer, tag string, w *workload, p *phase) {
	fmt.Fprintf(out, "%s: %d ops attempted, %d failed, %d passed in %.3fs\n", tag, p.attempted, p.failed, len(p.ops), p.wall.Seconds())
	if p.err != nil {
		fmt.Fprintf(out, "%s: first failure: %v\n", tag, p.err)
	}
	perSec := perSecond(p.ops)
	fmt.Fprintf(out, "%s: per_second_ops %v (%s)\n", tag, perSec, drift(perSec))
	lat := pooled(p.ops)
	fmt.Fprintf(out, "%s: %.2f ops/s, p50/p90/p95/p99 %.4f %.4f %.4f %.4f ms; p%g %.4f ms with %d samples beyond it\n", tag, p.rate(),
		ms(percentile(lat, 50)), ms(percentile(lat, 90)), ms(percentile(lat, 95)), ms(percentile(lat, 99)),
		w.tailPct, ms(percentile(lat, w.tailPct)), beyond(len(lat), w.tailPct))
	fmt.Fprintf(out, "%s: aslr_collisions %d\n", tag, p.collisions)
}

// drift summarises per-second counts: the spread of the whole seconds
// around their median. A drifted run moves every workload together; a
// regression moves one.
func drift(c []int) string {
	if len(c) < 2 {
		return "too short for drift"
	}
	whole := slices.Clone(c[:len(c)-1]) // the last second is partial
	slices.Sort(whole)
	med := float64(whole[len(whole)/2])
	if med == 0 {
		return "no ops"
	}
	return fmt.Sprintf("whole seconds span %+.1f%% .. %+.1f%% of their median %g",
		100*(float64(whole[0])/med-1), 100*(float64(whole[len(whole)-1])/med-1), med)
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return strings.Join(parts, " ")
}
