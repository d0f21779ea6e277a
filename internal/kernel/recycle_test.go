package kernel

import (
	"testing"

	"connlab/internal/isa"
)

// TestRecycleMatchesFreshLoad pins the recycle contract: a recycled
// process must be observationally identical to a fresh Load with the same
// config — same layout, same canary, same run results, same stdout.
func TestRecycleMatchesFreshLoad(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			for _, seed := range []int64{1, 2} { // 1 = same-seed fast path, 2 = re-derived layout
				p := loadHello(t, arch, Config{Seed: 1})
				if _, err := p.Call("main"); err != nil {
					t.Fatalf("warmup call: %v", err)
				}
				if !p.Recycle(Config{Seed: seed}) {
					t.Fatalf("Recycle(seed=%d) refused", seed)
				}
				fresh := loadHello(t, arch, Config{Seed: seed})

				if p.StackTop != fresh.StackTop {
					t.Errorf("seed %d: stack top %#x != fresh %#x", seed, p.StackTop, fresh.StackTop)
				}
				if p.Libc.Layout.TextBase != fresh.Libc.Layout.TextBase {
					t.Errorf("seed %d: libc base %#x != fresh %#x",
						seed, p.Libc.Layout.TextBase, fresh.Libc.Layout.TextBase)
				}
				if p.canary != fresh.canary || p.guardAddr != fresh.guardAddr {
					t.Errorf("seed %d: canary %#x@%#x != fresh %#x@%#x",
						seed, p.canary, p.guardAddr, fresh.canary, fresh.guardAddr)
				}
				if p.guardAddr != 0 {
					got, f := p.Mem().ReadU32(p.guardAddr)
					if f != nil || got != fresh.canary {
						t.Errorf("seed %d: canary in memory = %#x (%v), want %#x", seed, got, f, fresh.canary)
					}
				}

				res, err := p.Call("main")
				if err != nil {
					t.Fatalf("recycled call: %v", err)
				}
				want, err := fresh.Call("main")
				if err != nil {
					t.Fatalf("fresh call: %v", err)
				}
				if res.Status != want.Status || res.RetVal != want.RetVal {
					t.Errorf("seed %d: recycled run = %+v, fresh = %+v", seed, res, want)
				}
				if p.Stdout() != fresh.Stdout() {
					t.Errorf("seed %d: recycled stdout %q != fresh %q", seed, p.Stdout(), fresh.Stdout())
				}
			}
		})
	}
}

// TestRecycleASLRSameSeed: a same-seed ASLR recycle keeps the mapped
// layout and must match a fresh ASLR load.
func TestRecycleASLRSameSeed(t *testing.T) {
	cfg := Config{ASLR: true, Seed: 5}
	p := loadHello(t, isa.ArchX86S, cfg)
	if _, err := p.Call("main"); err != nil {
		t.Fatalf("warmup call: %v", err)
	}
	if !p.Recycle(cfg) {
		t.Fatal("same-seed ASLR recycle refused")
	}
	fresh := loadHello(t, isa.ArchX86S, cfg)
	if p.Libc.Layout.TextBase != fresh.Libc.Layout.TextBase {
		t.Errorf("libc base %#x != fresh %#x", p.Libc.Layout.TextBase, fresh.Libc.Layout.TextBase)
	}
	if p.canary != fresh.canary {
		t.Errorf("canary %#x != fresh %#x", p.canary, fresh.canary)
	}
	res, err := p.Call("main")
	if err != nil {
		t.Fatalf("recycled call: %v", err)
	}
	if res.Status != StatusReturned {
		t.Fatalf("recycled ASLR run: %+v", res)
	}
}

// TestRecycleRefusals: changes of a protection axis or of the ASLR entropy
// must force a fresh Load; a new seed under ASLR must not.
func TestRecycleRefusals(t *testing.T) {
	p := loadHello(t, isa.ArchX86S, Config{Seed: 1})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"aslr toggled", Config{ASLR: true, Seed: 1}},
		{"pie toggled", Config{PIE: true, Seed: 1}},
		{"wx toggled", Config{WX: true, Seed: 1}},
		{"entropy changed", Config{ASLREntropyPages: 64, Seed: 1}},
	}
	for _, c := range cases {
		if p.Recycle(c.cfg) {
			t.Errorf("%s: recycle accepted, want refused", c.name)
		}
	}
	// A refused recycle leaves the process usable.
	if !p.Recycle(Config{Seed: 1}) {
		t.Fatal("compatible recycle refused after refusals")
	}
	if res, err := p.Call("main"); err != nil || res.Status != StatusReturned {
		t.Fatalf("call after refusals: %+v, %v", res, err)
	}

	// A new seed under ASLR is accepted: the segments move to the new
	// seed's layout (TestRecycleRelocatesLikeFreshLoad pins the bytes).
	q := loadHello(t, isa.ArchX86S, Config{ASLR: true, Seed: 1})
	if !q.Recycle(Config{ASLR: true, Seed: 2}) {
		t.Fatal("ASLR recycle with a different seed refused, want accepted")
	}
	if want := LayoutFor(isa.ArchX86S, Config{ASLR: true, Seed: 2}); q.Libc.Layout.TextBase != want.LibcBase ||
		q.StackTop != want.StackTop {
		t.Errorf("recycled layout libc %#x stack %#x, want %#x %#x",
			q.Libc.Layout.TextBase, q.StackTop, want.LibcBase, want.StackTop)
	}
}
