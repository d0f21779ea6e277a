package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"connlab/internal/campaign"
	"connlab/internal/gadget"
	"connlab/internal/image"
	"connlab/internal/telemetry"
	"connlab/internal/victim"
)

// tracedBase offsets traced attempt indexes from the untraced ones, so the
// two phases of a traced run draw distinct inputs from the same seed.
const tracedBase = 1 << 30

// traceRun is everything a traced run measured.
type traceRun struct {
	untraced, traced  *phase
	tracers           []*tracer
	stats             poolStats
	recycled0, fresh0 int64 // pool counts when the measured phase began
	loadKB            float64
	instr, datagrams  atomic.Uint64
	faithful          atomic.Int64 // attempts whose decomposed path matched RunOne
	ctr0, ctr1        map[string]uint64
}

// checkFaithful compares a decomposed attempt with Engine.RunOne on the
// same cell and seed.
func checkFaithful(ref campaign.DeviceResult, cell campaign.Scenario, out outcome) error {
	if ref.Outcome != out.outcome || ref.Run.Instructions != out.instr || ref.Hijacked != out.hijacked {
		return fmt.Errorf("%s seed %d: decomposed %s/%d instr/%d hijacked, RunOne %s/%d/%d", label(cell), cell.TargetSeed,
			out.outcome, out.instr, out.hijacked, ref.Outcome, ref.Run.Instructions, ref.Hijacked)
	}
	return nil
}

// probeLoadKB measures the host bytes one kernel load allocates, loading
// each of the workload's daemon configurations a few times on one
// goroutine with nothing else running.
func probeLoadKB(w *workload, seed int64) (float64, error) {
	const reps = 4
	var total uint64
	n := 0
	for ci, cell := range w.cells {
		cfg, opts, _, err := campaign.TargetSetup(cell.Arch, cell.Protection, cell.Build,
			campaign.DeriveSeed(seed, streamSetup, 1<<20, uint64(ci)))
		if err != nil {
			return 0, err
		}
		prog, err := victim.BuildProgram(cell.Arch, opts)
		if err != nil {
			return 0, err
		}
		libc, err := image.BuildLibc(cell.Arch)
		if err != nil {
			return 0, err
		}
		for r := 0; r < reps; r++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			d, err := victim.NewDaemonWith(prog, libc, cfg)
			runtime.ReadMemStats(&b)
			if err != nil {
				return 0, err
			}
			runtime.KeepAlive(d)
			total += b.TotalAlloc - a.TotalAlloc
			n++
		}
	}
	return float64(total) / float64(n) / 1e3, nil
}

// traceFleet is the traced run of a fleet workload: an untraced reference
// phase on a warm engine, then the decomposed path on a fresh engine —
// a traced set-up attempt per cell, the replay of its recon,
// and a measured phase in which every attempt is shadowed and checked
// against Engine.RunOne on the reference engine.
func traceFleet(w *workload, o *oracle, seed int64, d time.Duration) (*traceRun, error) {
	engU, _, _, err := setup(w, o, seed, 0, "")
	if err != nil {
		return nil, err
	}
	tr := &traceRun{}
	tr.untraced = runFleet(w, o, engU, seed, 0, d/2)
	if tr.loadKB, err = probeLoadKB(w, seed); err != nil {
		return nil, err
	}

	telemetry.Enable()
	defer telemetry.Disable()
	gadget.FlushScanCache()
	s := newSession(campaign.New(campaign.Config{ReconSeed: o.reconSeed}), o.reconSeed, nil, &tr.stats)
	// tracers[0] holds the attempts' spans, tracers[1] those of no attempt.
	epoch := time.Now()
	tr.tracers = []*tracer{{epoch: epoch}, {epoch: epoch}}
	for _, cell := range w.opCells(seed, streamSetup, 1<<21) {
		if _, err := s.tracedAttempt(tr, tr.tracers[0], o, engU, cell, false); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	if err := s.replay(tr.tracers[1]); err != nil {
		return nil, err
	}

	tr.recycled0, tr.fresh0 = tr.stats.recycled.Load(), tr.stats.fresh.Load()
	tr.ctr0 = telemetry.TakeSnapshot().Counters
	tr.traced = measure(d/2, func(i int, t *tally, at time.Duration) {
		cell := w.attemptInput(seed, tracedBase+i)
		x := tr.tracers[0]
		n := len(x.attempts)
		out, err := s.tracedAttempt(tr, x, o, engU, cell, true)
		took := time.Duration(x.attempts[n].end - x.attempts[n].start)
		t.excluded += time.Since(epoch.Add(time.Duration(x.attempts[n].end))) // shadow and checks
		v := verdictOK
		if err == nil {
			v, err = o.check(cell, out)
		}
		t.note(at, took, collided(v), err)
	})
	tr.ctr1 = telemetry.TakeSnapshot().Counters
	return tr, nil
}

// tracedAttempt runs one decomposed attempt and then checks it.
func (s *session) tracedAttempt(tr *traceRun, x *tracer, o *oracle, ref *campaign.Engine, cell campaign.Scenario, measured bool) (campaign.Outcome, error) {
	out, sh, err := s.attempt(x, cell, measured)
	if err != nil {
		return out.outcome, err
	}
	return out.outcome, s.check(tr, x, o, ref, cell, out, sh, measured)
}

// check runs an attempt's kernel shadow and its faithfulness check
// against ref.RunOne. Set-up attempts (measured false) are also judged
// by the oracle here.
func (s *session) check(tr *traceRun, x *tracer, o *oracle, ref *campaign.Engine, cell campaign.Scenario, out outcome, sh *shadowRun, measured bool) error {
	if sh != nil {
		if err := s.shadow(x, cell, sh); err != nil {
			return err
		}
	}
	if err := checkFaithful(ref.RunOne(cell), cell, out); err != nil {
		return err
	}
	if measured {
		tr.faithful.Add(1)
		tr.instr.Add(out.instr)
		tr.datagrams.Add(uint64(out.datagrams))
	} else if v, err := o.check(cell, out.outcome); v == verdictFail {
		return err
	}
	return nil
}

// traceCold is the traced run of cold-start: an untraced reference phase,
// then ops that decompose the matrix run — a fresh engine over the warm
// store, cells pulled by as many workers as Engine.Run uses — with every
// attempt shadowed and checked against RunOne on a reference engine.
func traceCold(w *workload, o *oracle, seed int64, d time.Duration, workdir string) (*traceRun, error) {
	_, st, _, err := setup(w, o, seed, 0, workdir)
	if err != nil {
		return nil, err
	}
	tr := &traceRun{}
	tr.untraced = runCold(w, o, st, seed, 0, d/2)
	if tr.loadKB, err = probeLoadKB(w, seed); err != nil {
		return nil, err
	}

	telemetry.Enable()
	defer telemetry.Disable()
	ref := campaign.New(campaign.Config{ReconSeed: o.reconSeed, Snapshots: st})
	for _, cell := range w.cells { // warm the reference so it never scans during an op
		ref.RunOne(cell)
	}
	workers := runtime.GOMAXPROCS(0)
	epoch := time.Now()
	for c := 0; c <= workers; c++ {
		tr.tracers = append(tr.tracers, &tracer{epoch: epoch})
	}
	tr.ctr0 = telemetry.TakeSnapshot().Counters
	tr.traced = measure(d/2, func(i int, t *tally, at time.Duration) {
		cells := w.opCells(seed, streamOp, tracedBase+i)
		gadget.FlushScanCache()
		start := time.Now()
		s := newSession(campaign.New(campaign.Config{ReconSeed: o.reconSeed, Snapshots: st}), o.reconSeed, st, &tr.stats)
		outs := make([]outcome, len(cells))
		shadows := make([]*shadowRun, len(cells))
		ran := make([]*tracer, len(cells))
		errs := make([]error, len(cells))
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(x *tracer) {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(cells) {
						return
					}
					ran[ci] = x
					outs[ci], shadows[ci], errs[ci] = s.attempt(x, cells[ci], true)
				}
			}(tr.tracers[k])
		}
		wg.Wait()
		took := time.Since(start)

		// Shadows, faithfulness and the oracle run after the op, so the
		// op's time is the decomposed matrix run alone.
		r0 := time.Now()
		var err error
		collisions := 0
		for ci, cell := range cells {
			if err == nil {
				err = errs[ci]
			}
			if err == nil {
				err = s.check(tr, ran[ci], o, ref, cell, outs[ci], shadows[ci], true)
			}
			if err == nil {
				var v verdict
				v, err = o.check(cell, outs[ci].outcome)
				collisions += collided(v)
			}
		}
		if err == nil {
			err = s.replay(tr.tracers[workers])
		}
		t.excluded += time.Since(r0)
		t.note(at, took, collisions, err)
	})
	tr.ctr1 = telemetry.TakeSnapshot().Counters
	return tr, nil
}

// writeSpans writes the first limit spans of every tracer as TSV.
func writeSpans(path string, tracers []*tracer, limit int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tspan\tparent\tattempt\tlayer\tshadow\tstart_ns\tend_ns\tinstr")
	for ti, x := range tracers {
		for si, sp := range x.spans {
			if si >= limit {
				break
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%x\t%s\t%t\t%d\t%d\t%d\n", ti, si, sp.parent, sp.attempt,
				layerNames[sp.layer], sp.shadow, sp.start, sp.end, sp.instr)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
