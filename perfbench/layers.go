package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// spanLimit caps the spans per tracer written to the span file; every
// span still counts in the per-layer metrics.
const spanLimit = 50000

// layerSums is the self time and call count of each layer.
type layerSums struct {
	selfNs [numLayers]int64
	calls  [numLayers]int64
	// runInstr and runNs total the shadow kernel runs.
	runInstr, runNs int64
	// wallNs and coveredNs total the measured attempts' wall time and the
	// part of it their top-level spans cover.
	wallNs, coveredNs int64
	attempts          int64
}

// mean returns layer l's mean self time per call in microseconds, or 0
// when the workload never called it.
func (s *layerSums) mean(l layer) float64 {
	return ratio(us(s.selfNs[l]), float64(s.calls[l]))
}

// sumLayers computes self times: a span's duration less the durations of
// its child spans, floored at zero.
func sumLayers(tracers []*tracer) *layerSums {
	s := &layerSums{}
	for _, x := range tracers {
		child := make([]int64, len(x.spans))
		for _, sp := range x.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range x.spans {
			s.selfNs[sp.layer] += max(0, sp.end-sp.start-child[i])
			s.calls[sp.layer]++
			if sp.layer == lKernelRun {
				s.runInstr += int64(sp.instr)
				s.runNs += sp.end - sp.start
			}
		}
		for _, a := range x.attempts {
			if !a.measured {
				continue
			}
			s.attempts++
			s.wallNs += a.end - a.start
			for _, sp := range x.spans[a.first:a.last] {
				if sp.parent < 0 && !sp.shadow {
					s.coveredNs += sp.end - sp.start
				}
			}
		}
	}
	return s
}

// tracedResult is the traced run: per-layer metrics plus the
// faithfulness and coverage checks.
func tracedResult(out io.Writer, w *workload, o *oracle, seed int64, d time.Duration, workdir string) (*result, error) {
	var tr *traceRun
	var err error
	if w.cold {
		tr, err = traceCold(w, o, seed, d, workdir)
	} else {
		tr, err = traceFleet(w, o, seed, d)
	}
	if err != nil {
		return nil, err
	}
	printPhase(out, "untraced", w, tr.untraced)
	printPhase(out, "traced", w, tr.traced)
	s := sumLayers(tr.tracers)
	for l := layer(0); l < numLayers; l++ {
		fmt.Fprintf(out, "span %-36s calls %9d self %12.3f us/call\n", layerNames[l], s.calls[l], s.mean(l))
	}
	uncovered := 1 - ratio(float64(s.coveredNs), float64(s.wallNs))
	fmt.Fprintf(out, "faithfulness: %d traced attempts matched Engine.RunOne; spans cover %.2f%% of attempt wall time (uncovered %.2f%%)\n",
		tr.faithful.Load(), 100*(1-uncovered), 100*uncovered)
	path := filepath.Join(".bench_build", "perfbench-spans-"+w.name+".tsv")
	if err := writeSpans(path, tr.tracers, spanLimit); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s\n", path)

	c0, c1 := tr.ctr0, tr.ctr1
	delta := func(names ...string) float64 {
		var n uint64
		for _, k := range names {
			n += c1[k] - c0[k]
		}
		return float64(n)
	}
	total := func(names ...string) float64 {
		var n uint64
		for _, k := range names {
			n += c1[k]
		}
		return float64(n)
	}
	blockHit := delta("x86s_block_hit", "arms_block_hit")
	blockAll := blockHit + delta("x86s_block_translate", "arms_block_translate")
	cacheHit := delta("recon_hit", "payload_hit")
	cacheAll := cacheHit + delta("recon_build", "payload_build")
	scanHit := total("gadget_scan_hit")
	snapHit := total("snap_hit")
	recycled := float64(tr.stats.recycled.Load() - tr.recycled0)
	fresh := float64(tr.stats.fresh.Load() - tr.fresh0)
	attempts := float64(tr.faithful.Load())
	u := tr.untraced

	res := newResult(&tr.untraced.tally)
	res.Attempted += tr.traced.attempted
	res.Failed += tr.traced.failed
	res.Correct = res.Failed == 0 && attempts > 0 && len(u.ops) > 0
	res.Metrics = map[string]metric{
		"kernel.load_us":                 {s.mean(lKernelLoad), "us"},
		"kernel.load_kb":                 {tr.loadKB, "kB"},
		"runtime.gc_per_kop":             {1e3 * ratio(float64(u.numGC), float64(len(u.ops))), "1/kop"},
		"kernel.recycle_us":              {s.mean(lKernelRecycle), "us"},
		"kernel.run_us":                  {s.mean(lKernelRun), "us"},
		"kernel.instr_per_attempt":       {ratio(float64(tr.instr.Load()), attempts), "count"},
		"isa.minstr_per_s":               {1e3 * ratio(float64(s.runInstr), float64(s.runNs)), "Minstr/s"},
		"isa.block_hit_ratio":            {ratio(blockHit, blockAll), "ratio"},
		"netsim.world_us":                {s.mean(lNetsimWorld), "us"},
		"netsim.deliver_us":              {s.mean(lNetsimDeliver), "us"},
		"netsim.datagrams_per_attempt":   {ratio(float64(tr.datagrams.Load()), attempts), "count"},
		"dns.encode_us":                  {s.mean(lDNSEncode), "us"},
		"victim.build_us":                {s.mean(lVictimBuild), "us"},
		"image.link_us":                  {s.mean(lImageLink), "us"},
		"gadget.scan_us":                 {s.mean(lGadgetScan), "us"},
		"gadget.scan_hit_ratio":          {ratio(scanHit, scanHit+total("gadget_scan_entries")), "ratio"},
		"exploit.recon_us":               {s.mean(lExploitRecon), "us"},
		"exploit.build_us":               {s.mean(lExploitBuild), "us"},
		"snapshot.load_us":               {s.mean(lSnapshotLoad), "us"},
		"snapshot.hit_ratio":             {ratio(snapHit, snapHit+total("snap_miss")), "ratio"},
		"campaign.attempt_us":            {ratio(us(s.wallNs), float64(s.attempts)), "us"},
		"campaign.cache_hit_ratio":       {ratio(cacheHit, cacheAll), "ratio"},
		"campaign.pool_recycle_ratio":    {ratio(recycled, recycled+fresh), "ratio"},
		"telemetry.trace_overhead_ratio": {ratio(tr.traced.rate(), u.rate()), "ratio"},
		"trace.uncovered_ratio":          {uncovered, "ratio"},
		"oracle.aslr_collisions":         {float64(u.collisions + tr.traced.collisions), "count"},
	}
	return res, nil
}
