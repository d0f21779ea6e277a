package main

import (
	"fmt"

	"connlab/internal/campaign"
	"connlab/internal/kernel"
	"connlab/internal/scenario"
)

// oracle checks verdicts against connman.scn's expectation matrix.
//
// The spec says wx+aslr=crash for the libc-dependent chains (x86s
// ret2libc, arms rop-execlp). That holds for all but about 1 in 4096
// seeds: when the target's ASLR draw puts libc at the same base as the
// attacker's replica, the chain lands and the attempt gets a shell. The
// oracle accepts such a shell only when kernel.LayoutFor shows the two
// libc bases equal, and counts it as an ASLR collision; every other
// mismatch is a failure. Seeds are never filtered. Teaching connman.scn
// and scenario.Verify about collisions is left to a later change.
type oracle struct {
	spec      *scenario.Spec
	reconSeed int64
}

// verdict is the oracle's judgement of one attempt.
type verdict int

const (
	verdictOK verdict = iota
	verdictCollision
	verdictFail
)

// check judges one attempt of cell (whose TargetSeed is the device seed).
func (o *oracle) check(cell campaign.Scenario, out campaign.Outcome) (verdict, error) {
	row, ok := scenario.RowFor(cell.Protection)
	if !ok {
		return verdictFail, fmt.Errorf("%s: protection %s is not a spec row", label(cell), cell.Protection)
	}
	want, ok := o.spec.Expected(cell.Kind, cell.Arch, row)
	if !ok {
		return verdictFail, fmt.Errorf("%s: no expectation", label(cell))
	}
	for _, w := range want {
		if out == w {
			return verdictOK, nil
		}
	}
	if out == campaign.OutcomeShell && cell.Protection.ASLR && o.libcCollides(cell) {
		return verdictCollision, nil
	}
	return verdictFail, fmt.Errorf("%s seed %d: outcome %s, spec allows %v", label(cell), cell.TargetSeed, out, want)
}

// libcCollides reports whether the target's libc base equals the one the
// attacker's replica sampled.
func (o *oracle) libcCollides(cell campaign.Scenario) bool {
	cfg, _, _, err := campaign.TargetSetup(cell.Arch, cell.Protection, cell.Build, cell.TargetSeed)
	if err != nil {
		return false
	}
	replica := kernel.Config{WX: cell.Protection.WX, ASLR: cell.Protection.ASLR, Seed: o.reconSeed}
	return kernel.LayoutFor(cell.Arch, cfg).LibcBase == kernel.LayoutFor(cell.Arch, replica).LibcBase
}

// checkReport judges a cold-start report: scenario.Verify first, and
// when it objects, each device through check so that ASLR collisions are
// told apart from real failures. It returns the collision count.
func (o *oracle) checkReport(rep *campaign.Report) (collisions int, err error) {
	if verr := scenario.Verify(o.spec, rep); verr == nil {
		return 0, nil
	}
	for si := range rep.Scenarios {
		sr := &rep.Scenarios[si]
		for di := range sr.Devices {
			d := &sr.Devices[di]
			cell := sr.Scenario
			cell.TargetSeed = d.Seed
			v, cerr := o.check(cell, d.Outcome)
			switch v {
			case verdictCollision:
				collisions++
			case verdictFail:
				return collisions, cerr
			}
		}
	}
	return collisions, nil
}

// label names a cell the way campaign reports do.
func label(c campaign.Scenario) string {
	return fmt.Sprintf("%s/%s/%s", c.Arch, c.Kind, c.Protection)
}

// collided converts a verdict into the collision count note takes.
func collided(v verdict) int {
	if v == verdictCollision {
		return 1
	}
	return 0
}
