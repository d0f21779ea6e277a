package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"connlab/internal/campaign"
	"connlab/internal/gadget"
	"connlab/internal/snapshot"
)

// tally accumulates one phase's op results.
type tally struct {
	attempted, failed, collisions int
	ops                           []sample // the ops that passed
	// excluded is time spent between ops on work that is not part of one
	// (the host-speed probe, the traced path's faithfulness replays);
	// rates leave it out.
	excluded time.Duration
	err      error
}

// note records one finished op that started at offset at from the phase
// start and took d. A non-nil err fails the op; collisions counts the
// ASLR collisions the oracle accepted in it.
func (t *tally) note(at, d time.Duration, collisions int, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.collisions += collisions
	t.ops = append(t.ops, sample{done: at + d, lat: d})
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.collisions += o.collisions
	t.ops = append(t.ops, o.ops...)
	t.excluded += o.excluded
	if t.err == nil {
		t.err = o.err
	}
}

// phase is the outcome of one measured phase.
type phase struct {
	tally
	wall   time.Duration
	alloc  uint64 // host bytes allocated during the phase
	numGC  uint32
	probes []probeMark // host-speed probe runs (probe.go)
}

// append adds phase q after p: q's ops are shifted onto p's clock.
func (p *phase) append(q *phase) {
	for i := range q.ops {
		q.ops[i].done += p.wall
	}
	for i := range q.probes {
		q.probes[i].at += p.wall
	}
	p.merge(&q.tally)
	p.wall += q.wall
	p.alloc += q.alloc
	p.numGC += q.numGC
	p.probes = append(p.probes, q.probes...)
}

// busy is the phase's wall time without the excluded time.
func (p *phase) busy() time.Duration {
	return p.wall - p.excluded
}

// rate is passed ops per second of busy time.
func (p *phase) rate() float64 {
	return float64(len(p.ops)) / p.busy().Seconds()
}

// measure runs a closed loop of ops until d has passed: op is called with
// the attempt counter, the phase's tally and the attempt's start offset,
// and notes the outcome in the tally. Every probeEvery the loop also runs
// the host-speed probe; its time is left out of the rates.
func measure(d time.Duration, op func(i int, t *tally, at time.Duration)) *phase {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := &phase{}
	next := time.Duration(0)
	start := time.Now()
	for i := 0; ; i++ {
		at := time.Since(start)
		if at >= d {
			break
		}
		if at >= next {
			took := probe()
			p.excluded += took
			p.probes = append(p.probes, probeMark{at, took})
			next = at + probeEvery
		}
		op(i, &p.tally, at)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.numGC = after.NumGC - before.NumGC
	return p
}

// fleetSetup builds a warm engine for a fleet workload: a fresh engine
// and scan cache, then one attempt at every cell, so recon, payloads,
// packets, program units and a pooled daemon are in place. It returns the
// engine and the set-up time.
func fleetSetup(w *workload, o *oracle, seed int64, rep int) (*campaign.Engine, time.Duration, error) {
	runtime.GC()
	gadget.FlushScanCache()
	cells := w.opCells(seed, streamSetup, rep)
	outs := make([]campaign.Outcome, len(cells))
	start := time.Now()
	eng := campaign.New(campaign.Config{ReconSeed: o.reconSeed})
	for ci, cell := range cells {
		outs[ci] = eng.RunOne(cell).Outcome
	}
	took := time.Since(start)
	for ci, out := range outs {
		if v, err := o.check(cells[ci], out); v == verdictFail {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return eng, took, nil
}

// runFleet measures a fleet workload on a warm engine: each attempt calls
// Engine.RunOne with a fresh cell and TargetSeed. base offsets
// the attempt index so phases of one run draw distinct inputs.
func runFleet(w *workload, o *oracle, eng *campaign.Engine, seed int64, base int, d time.Duration) *phase {
	return measure(d, func(i int, t *tally, at time.Duration) {
		cell := w.attemptInput(seed, base+i)
		t0 := time.Now()
		r := eng.RunOne(cell)
		took := time.Since(t0)
		v, err := o.check(cell, r.Outcome)
		t.note(at, took, collided(v), err)
	})
}

// coldSetup is the cold-start set-up: a live matrix run into an empty
// snapshot store in dir (emptied first), from a flushed scan cache. It returns the
// populated store and the set-up time.
func coldSetup(w *workload, o *oracle, seed int64, rep int, dir string) (*snapshot.Store, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	cells := w.opCells(seed, streamSetup, rep)
	runtime.GC()
	gadget.FlushScanCache()
	start := time.Now()
	st, err := snapshot.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	gadget.SetSnapshotStore(st)
	rp, err := campaign.New(campaign.Config{ReconSeed: o.reconSeed, Snapshots: st}).Run(cells)
	took := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up run: %w", err)
	}
	if _, err := o.checkReport(rp); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return st, took, nil
}

// runCold measures cold-start ops: each op flushes the scan cache and
// runs the whole matrix on a fresh engine over the warm store.
func runCold(w *workload, o *oracle, st *snapshot.Store, seed int64, base int, d time.Duration) *phase {
	return measure(d, func(i int, t *tally, at time.Duration) {
		cells := w.opCells(seed, streamOp, base+i)
		gadget.FlushScanCache()
		t0 := time.Now()
		rp, err := campaign.New(campaign.Config{ReconSeed: o.reconSeed, Snapshots: st}).Run(cells)
		took := time.Since(t0)
		n := 0
		if err == nil {
			n, err = o.checkReport(rp)
		}
		t.note(at, took, n, err)
	})
}

// setup runs one fresh set-up of a workload (rep numbers it) and returns
// the state it leaves — a warm engine (fleets) or a warm store
// (cold-start) — and its time.
func setup(w *workload, o *oracle, seed int64, rep int, workdir string) (*campaign.Engine, *snapshot.Store, time.Duration, error) {
	if w.cold {
		st, took, err := coldSetup(w, o, seed, rep, filepath.Join(workdir, "store"))
		return nil, st, took, err
	}
	eng, took, err := fleetSetup(w, o, seed, rep)
	return eng, nil, took, err
}

// rounds runs a warm-up round and then n measured rounds. Each round is
// a fresh set-up followed by d/n of closed-loop ops on the state it
// built; the warm-up round's ops and set-up are discarded. It returns the
// n set-up times and the n measured phases.
//
// Spreading the set-ups over the run, instead of doing them all first,
// makes setup_s sample the same host conditions as the ops do.
func rounds(w *workload, o *oracle, seed int64, n int, d time.Duration, workdir string) ([]time.Duration, []*phase, error) {
	var times []time.Duration
	var ps []*phase
	slice := d / time.Duration(n)
	for r := 0; r <= n; r++ {
		eng, st, took, err := setup(w, o, seed, r, workdir)
		if err != nil {
			return nil, nil, err
		}
		base := r << 24 // distinct attempt indexes per round
		var p *phase
		if w.cold {
			p = runCold(w, o, st, seed, base, slice)
		} else {
			p = runFleet(w, o, eng, seed, base, slice)
		}
		if r == 0 {
			continue // warm-up
		}
		times = append(times, took)
		ps = append(ps, p)
	}
	return times, ps, nil
}
