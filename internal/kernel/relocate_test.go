package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/mem"
)

// guardedUnits returns the hello program of arch extended with a
// stack-protector guard in .bss and an initialized .data object, so every
// program section kind and the canary take part in a relocation, plus the
// libc unit.
func guardedUnits(t *testing.T, arch isa.Arch) (prog, libc *image.Unit) {
	t.Helper()
	if arch == isa.ArchARMS {
		prog = buildARMHello(t)
	} else {
		prog = buildX86Hello(t)
	}
	prog.AddData("table", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	prog.AddBSS("__stack_chk_guard", 4)
	libc, err := image.BuildLibc(arch)
	if err != nil {
		t.Fatalf("build libc: %v", err)
	}
	return prog, libc
}

// sameSpace reports the first difference between two address spaces:
// segment count, then each segment's name, base, permissions and bytes.
func sameSpace(a, b *Process) error {
	as, bs := a.Mem().Segments(), b.Mem().Segments()
	if len(as) != len(bs) {
		return fmt.Errorf("%d segments, fresh has %d", len(as), len(bs))
	}
	for i := range as {
		x, y := as[i], bs[i]
		if x.Name != y.Name || x.Base != y.Base || x.Perm != y.Perm {
			return fmt.Errorf("segment %d: %s@%#x %v, fresh %s@%#x %v",
				i, x.Name, x.Base, x.Perm, y.Name, y.Base, y.Perm)
		}
		if !bytes.Equal(x.Data, y.Data) {
			return fmt.Errorf("segment %s@%#x: bytes differ from fresh", x.Name, x.Base)
		}
	}
	return nil
}

// TestRecycleRelocatesLikeFreshLoad pins the new-seed recycle contract
// under ASLR and PIE: one process, recycled through a run of seeds, must
// equal a fresh Load of each seed's config — every segment's name, base,
// permissions and bytes, the stack top, both link layouts, the canary,
// the run's status, return value, retired-instruction count and stdout —
// and must still equal it after both are scribbled on and Reset once
// more, which pins the sealed baselines the moves replaced.
func TestRecycleRelocatesLikeFreshLoad(t *testing.T) {
	const seeds = 32
	axes := []struct {
		name      string
		aslr, pie bool
	}{{"aslr", true, false}, {"pie", false, true}, {"aslr+pie", true, true}}
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		prog, libc := guardedUnits(t, arch)
		for _, ax := range axes {
			for _, wx := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/wx=%v", arch, ax.name, wx)
				t.Run(name, func(t *testing.T) {
					cfg := Config{WX: wx, ASLR: ax.aslr, PIE: ax.pie, Seed: 1000}
					p, err := Load(prog, libc, cfg)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if _, err := p.Call("main"); err != nil {
						t.Fatalf("warmup call: %v", err)
					}
					for seed := int64(1); seed <= seeds; seed++ {
						cfg.Seed = seed
						if !p.Recycle(cfg) {
							t.Fatalf("seed %d: recycle refused", seed)
						}
						fresh, err := Load(prog, libc, cfg)
						if err != nil {
							t.Fatalf("seed %d: fresh load: %v", seed, err)
						}
						if err := sameSpace(p, fresh); err != nil {
							t.Fatalf("seed %d after recycle: %v", seed, err)
						}
						if p.StackTop != fresh.StackTop || p.Prog.Layout != fresh.Prog.Layout ||
							p.Libc.Layout != fresh.Libc.Layout {
							t.Fatalf("seed %d: layout stack %#x prog %+v libc %+v, fresh %#x %+v %+v",
								seed, p.StackTop, p.Prog.Layout, p.Libc.Layout,
								fresh.StackTop, fresh.Prog.Layout, fresh.Libc.Layout)
						}
						if p.canary != fresh.canary || p.guardAddr != fresh.guardAddr || p.guardAddr == 0 {
							t.Fatalf("seed %d: canary %#x@%#x, fresh %#x@%#x",
								seed, p.canary, p.guardAddr, fresh.canary, fresh.guardAddr)
						}
						got, err := p.Call("main")
						if err != nil {
							t.Fatalf("seed %d: recycled call: %v", seed, err)
						}
						want, err := fresh.Call("main")
						if err != nil {
							t.Fatalf("seed %d: fresh call: %v", seed, err)
						}
						if got.Status != want.Status || got.RetVal != want.RetVal ||
							got.Instructions != want.Instructions || got.Status != StatusReturned {
							t.Fatalf("seed %d: recycled run %+v, fresh %+v", seed, got, want)
						}
						if p.Stdout() != fresh.Stdout() {
							t.Fatalf("seed %d: stdout %q, fresh %q", seed, p.Stdout(), fresh.Stdout())
						}
						// Scribble over every writable segment so the
						// Reset below must restore each baseline.
						for _, q := range []*Process{p, fresh} {
							for _, seg := range q.Mem().Segments() {
								if seg.Perm&mem.PermWrite != 0 {
									if f := q.Mem().WriteU32(seg.Base, 0xA5A5A5A5); f != nil {
										t.Fatal(f)
									}
								}
							}
						}
						if !p.Mem().Reset() || !fresh.Mem().Reset() {
							t.Fatalf("seed %d: second Reset refused", seed)
						}
						if err := sameSpace(p, fresh); err != nil {
							t.Fatalf("seed %d after second Reset: %v", seed, err)
						}
					}
				})
			}
		}
	}
}

// TestRecycleNewSeedAllocsNothing pins the reseeded random stream: a
// fixed-layout recycle under a new seed redraws the canary from the
// process's own generator and allocates nothing.
func TestRecycleNewSeedAllocsNothing(t *testing.T) {
	prog, libc := guardedUnits(t, isa.ArchX86S)
	p, err := Load(prog, libc, Config{WX: true, Seed: 1})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	seed := int64(1)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		if !p.Recycle(Config{WX: true, Seed: seed}) {
			t.Fatal("recycle refused")
		}
	})
	if allocs != 0 {
		t.Errorf("new-seed recycle: %v allocs/op, want 0", allocs)
	}
	fresh, err := Load(prog, libc, Config{WX: true, Seed: seed})
	if err != nil {
		t.Fatalf("fresh load: %v", err)
	}
	if p.canary != fresh.canary {
		t.Errorf("canary %#x after reseeding, fresh %#x", p.canary, fresh.canary)
	}
}

// TestRecycleRefusesLayoutThatDoesNotFit: when the new seed's layout
// cannot be placed, Recycle reports false and leaves the process as it
// was, so the caller's fallback fresh Load reports the conflict.
func TestRecycleRefusesLayoutThatDoesNotFit(t *testing.T) {
	prog, libc := guardedUnits(t, isa.ArchX86S)
	// With this much entropy some libc slide lands on the stack.
	cfg := Config{ASLR: true, ASLREntropyPages: 0x10000, Seed: 1}
	p, err := Load(prog, libc, cfg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var bad int64
	for s := int64(2); s < 5000 && bad == 0; s++ {
		c := cfg
		c.Seed = s
		if _, err := Load(prog, libc, c); err != nil {
			bad = s
		}
	}
	if bad == 0 {
		t.Skip("no conflicting seed found")
	}
	before := p.Mem().Gen()
	stack, libcBase := p.StackTop, p.Libc.Layout.TextBase
	c := cfg
	c.Seed = bad
	if p.Recycle(c) {
		t.Fatalf("seed %d: recycle into a conflicting layout accepted", bad)
	}
	if p.Mem().Gen() != before || p.StackTop != stack || p.Libc.Layout.TextBase != libcBase {
		t.Error("refused recycle changed the process")
	}
	if !p.Recycle(cfg) {
		t.Fatal("same-seed recycle refused after a refusal")
	}
	if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
		t.Fatalf("call after refusal: %+v, %v", res, err)
	}
}
