package main

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/scenario"
)

// Input streams. Every input the program under test receives is a pure
// function of the workload seed: the scenario cells (compiled from
// connman.scn), the attacker's replica seed, and one TargetSeed per
// attempt. Seeds come from campaign.DeriveSeed with a stream tag first, so
// the streams never overlap.
const (
	streamRecon  = 1 // the engine's ReconSeed
	streamTarget = 2 // per-attempt TargetSeed: (attempt)
	streamCell   = 3 // per-attempt cell choice: (attempt)
	streamOp     = 4 // cold-start TargetSeed: (op, cell)
	streamSetup  = 5 // set-up attempts: (repeat, cell)
)

// workload is one named input set.
type workload struct {
	name string
	// why the workload exists; printed with the result.
	why string
	// cells are the compiled scenario cells the workload draws from.
	cells []campaign.Scenario
	// cold marks the cold-start shape: one op is a fresh engine running
	// every cell once; otherwise one op is one Engine.RunOne attempt.
	cold bool
	// tailPct is the fixed tail percentile reported as op_tail_ms.
	tailPct float64
}

var workloadNames = []string{"fleet-recycle", "fleet-fresh", "cold-start"}

// loadWorkload compiles the named workload's cells from connman.scn.
func loadWorkload(name string, spec *scenario.Spec) (*workload, error) {
	switch name {
	case "fleet-recycle":
		cells, err := compileRows(spec, scenario.CompileOpts{Pineapple: true}, "none", "wx")
		return &workload{name: name, cells: cells, tailPct: 95,
			why: "fixed layouts, so daemons are recycled; time goes to emulation, Recycle and the per-device netsim/dnsserver world"}, err
	case "fleet-fresh":
		cells, err := compileRows(spec, scenario.CompileOpts{}, "wx+aslr")
		return &workload{name: name, cells: cells, tailPct: 95,
			why: "every seed gets a new layout, so each attempt does a fresh kernel.Load; netsim is bypassed"}, err
	case "cold-start":
		cells, err := compileRows(spec, scenario.CompileOpts{}, "none", "wx", "wx+aslr")
		return &workload{name: name, cells: cells, tailPct: 90, cold: true,
			why: "fresh engine and scan cache over a warm snapshot store: victim build, link, recon-from-store, gadget index and exploit.Build are measured"}, err
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// compileRows compiles the spec and keeps the cells of the named rows.
func compileRows(spec *scenario.Spec, opts scenario.CompileOpts, rows ...string) ([]campaign.Scenario, error) {
	all, err := scenario.Compile(spec, opts)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(rows))
	for _, r := range rows {
		keep[r] = true
	}
	var out []campaign.Scenario
	for _, c := range all {
		if row, ok := scenario.RowFor(c.Protection); ok && keep[row] {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cells in rows %v", rows)
	}
	return out, nil
}

// reconSeed is the attacker's replica seed for a workload seed.
func reconSeed(seed int64) int64 { return campaign.DeriveSeed(seed, streamRecon) }

// attemptInput returns the cell and TargetSeed of a fleet's i-th attempt.
func (w *workload) attemptInput(seed int64, i int) campaign.Scenario {
	c := w.cells[uint64(campaign.DeriveSeed(seed, streamCell, uint64(i)))%uint64(len(w.cells))]
	c.TargetSeed = campaign.DeriveSeed(seed, streamTarget, uint64(i))
	return c
}

// opCells returns every cell once, each with its own TargetSeed: the
// cells of cold-start op i, or of set-up i. tag separates the two.
func (w *workload) opCells(seed int64, tag uint64, i int) []campaign.Scenario {
	out := make([]campaign.Scenario, len(w.cells))
	for ci, c := range w.cells {
		c.TargetSeed = campaign.DeriveSeed(seed, tag, uint64(i), uint64(ci))
		out[ci] = c
	}
	return out
}
