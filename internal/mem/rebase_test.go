package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSealKeepsBaseline: a Seal must record what Reset has to restore no
// matter how the segment got its bytes — populated after Map, restored by
// Reset (clean, yet not zero), or copied by Clone (clean tracking on a
// fresh segment, yet not zero).
func TestSealKeepsBaseline(t *testing.T) {
	want := []byte{1, 2, 3, 4}
	cases := []struct {
		name  string
		setup func(t *testing.T) *Memory
	}{
		{"after Map", func(t *testing.T) *Memory {
			m := New()
			s, err := m.Map("data", 0x1000, 4, PermRW)
			if err != nil {
				t.Fatal(err)
			}
			s.Populate(0, want)
			m.Seal()
			return m
		}},
		{"after Reset", func(t *testing.T) *Memory {
			m := New()
			s, err := m.Map("data", 0x1000, 4, PermRW)
			if err != nil {
				t.Fatal(err)
			}
			s.Populate(0, want)
			m.Seal()
			if f := m.Store32(0x1000, 0xFFFFFFFF); f != nil {
				t.Fatal(f)
			}
			m.Reset()
			m.Seal()
			return m
		}},
		{"after Clone", func(t *testing.T) *Memory {
			m := New()
			s, err := m.Map("data", 0x1000, 4, PermRW)
			if err != nil {
				t.Fatal(err)
			}
			s.Populate(0, want)
			m.Seal()
			c := m.Clone()
			c.Seal()
			return c
		}},
		{"after Seal, Store, Seal", func(t *testing.T) *Memory {
			m := New()
			s, err := m.Map("data", 0x1000, 4, PermRW)
			if err != nil {
				t.Fatal(err)
			}
			s.Populate(0, []byte{1, 9, 3, 4})
			m.Seal()
			if f := m.Store8(0x1001, 2); f != nil {
				t.Fatal(f)
			}
			m.Seal()
			return m
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.setup(t)
			if f := m.Store8(0x1001, 0xEE); f != nil {
				t.Fatal(f)
			}
			if !m.Reset() {
				t.Fatal("Reset refused")
			}
			got, f := m.ReadBytes(0x1000, 4)
			if f != nil || !bytes.Equal(got, want) {
				t.Errorf("after Reset = %v (%v), want %v", got, f, want)
			}
		})
	}
}

// rebaseSpace maps text at 0x1000, rodata at 0x3000 and stack at 0x9000,
// populates and seals it, and scribbles on the stack.
func rebaseSpace(t *testing.T) *Memory {
	t.Helper()
	m := New()
	for _, s := range []struct {
		name string
		base uint32
		perm Perm
		fill byte
	}{{"text", 0x1000, PermRX, 0xAA}, {"rodata", 0x3000, PermRead, 0xBB}, {"stack", 0x9000, PermRW, 0}} {
		seg, err := m.Map(s.name, s.base, 0x1000, s.perm)
		if err != nil {
			t.Fatal(err)
		}
		if s.fill != 0 {
			seg.Populate(0, bytes.Repeat([]byte{s.fill}, 0x1000))
		}
	}
	m.Seal()
	if f := m.Store32(0x9100, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	return m
}

// snapshot renders every segment's name, base, permissions and bytes.
func snapshot(m *Memory) string {
	var b bytes.Buffer
	for _, s := range m.Segments() {
		fmt.Fprintf(&b, "%s@%#x %v %x\n", s.Name, s.Base, s.Perm, s.Data)
	}
	return b.String()
}

// TestRebaseRejectsFinalOverlap: a move list whose final layout overlaps
// (or names a segment twice, or misses one, or carries mis-sized data) is
// refused with the space byte-identical and Gen unchanged.
func TestRebaseRejectsFinalOverlap(t *testing.T) {
	for _, c := range []struct {
		name  string
		moves []Move
	}{
		{"onto a segment that stays", []Move{{Name: "text", Base: 0x9800}}},
		{"two movers onto one range", []Move{{Name: "text", Base: 0x5000}, {Name: "rodata", Base: 0x5800}}},
		{"moved twice", []Move{{Name: "text", Base: 0x5000}, {Name: "text", Base: 0x6000}}},
		{"unknown segment", []Move{{Name: "heap", Base: 0x5000}}},
		{"wrong data size", []Move{{Name: "text", Base: 0x5000, Data: make([]byte, 4)}}},
		{"wraps", []Move{{Name: "text", Base: 0xFFFFF800}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := rebaseSpace(t)
			before, gen := snapshot(m), m.Gen()
			if err := m.Rebase(c.moves); err == nil {
				t.Fatal("Rebase accepted")
			}
			if snapshot(m) != before || m.Gen() != gen {
				t.Error("refused Rebase changed the space")
			}
			if !m.Reset() {
				t.Fatal("Reset refused after a refused Rebase")
			}
		})
	}
}

// TestRebaseOverlapsOnlyOldPositions: segments may move onto ranges that
// other moving segments vacate. Afterwards the space is sorted, accessors
// find every segment at its new base, new Data is live and sealed, and
// Reset restores the baselines at the new bases.
func TestRebaseOverlapsOnlyOldPositions(t *testing.T) {
	m := rebaseSpace(t)
	text := bytes.Repeat([]byte{0xCC}, 0x1000)
	gen := m.Gen()
	// text lands on rodata's old range, rodata on the stack's, and the
	// stack, dirty word and all, below both.
	err := m.Rebase([]Move{
		{Name: "text", Base: 0x3000, Data: text},
		{Name: "rodata", Base: 0x9000},
		{Name: "stack", Base: 0x0000},
	})
	if err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if m.Gen() == gen {
		t.Error("Rebase did not bump Gen")
	}
	segs := m.Segments()
	for i, want := range []string{"stack", "text", "rodata"} {
		if segs[i].Name != want {
			t.Fatalf("segment %d = %s, want %s (sorted by base)", i, segs[i].Name, want)
		}
	}
	if v, _ := m.Load8(0x3000); v != 0xCC {
		t.Errorf("text after move = %#x, want new data", v)
	}
	if v, _ := m.Load8(0x9000); v != 0xBB {
		t.Errorf("rodata after move = %#x, want 0xbb", v)
	}
	if v, _ := m.Load32(0x0100); v != 0xDEADBEEF {
		t.Errorf("stack word after move = %#x, want it carried along", v)
	}
	if f := m.Store8(0x0200, 7); f != nil {
		t.Fatal(f)
	}
	if !m.Reset() {
		t.Fatal("Reset refused after Rebase")
	}
	if v, _ := m.Load32(0x0100); v != 0 {
		t.Errorf("stack word after Reset = %#x, want 0", v)
	}
	if v, _ := m.Load8(0x3FFF); v != 0xCC {
		t.Errorf("text after Reset = %#x, want the new baseline", v)
	}
	if s := m.Find(0x1000); s != nil {
		t.Errorf("old text range still mapped to %s", s.Name)
	}
}

// modelSeg is one segment of the naive interval model FuzzRebase checks
// Rebase against.
type modelSeg struct {
	name     string
	base     uint32
	size     uint32
	baseline []byte
}

// FuzzRebase drives Rebase with random segment sets and move lists. The
// oracle is a naive model: a move list is valid iff every name exists
// once, sizes match, no range wraps and the final intervals are pairwise
// disjoint. An accepted move, scribbled on afterwards, must leave Reset
// restoring each baseline (the new Data where given) at the new base; a
// refused one must leave memory byte-identical with Gen unchanged.
func FuzzRebase(f *testing.F) {
	f.Add([]byte{3, 0, 1, 4, 2, 9, 1, 2, 0, 2, 7, 1, 1, 0, 0})
	f.Add([]byte{2, 0, 2, 2, 2, 2, 0, 0, 2, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{4, 0, 1, 2, 1, 4, 1, 6, 1, 3, 0, 5, 1, 1, 1, 4, 2, 2, 0, 0, 9})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// Segments live on a grid of 0x100-byte slots; the top slots sit
		// against the end of the address space so wrapping moves occur.
		const slot = 0x100
		addr := func(b byte) uint32 {
			if b >= 0xF0 {
				return 0xFFFFFFFF - uint32(0xFF-b+1)*slot + 1
			}
			return uint32(b%32) * slot
		}
		m := New()
		var model []modelSeg
		for n := int(next()%6) + 1; n > 0; n-- {
			base, size := addr(next()), uint32(next()%3+1)*slot
			name := fmt.Sprintf("s%d", len(model))
			seg, err := m.Map(name, base, size, PermRW)
			if err != nil {
				continue
			}
			ms := modelSeg{name: name, base: base, size: size, baseline: make([]byte, size)}
			if fill := next(); fill%2 == 1 {
				for i := range ms.baseline {
					ms.baseline[i] = fill + byte(i)
				}
				seg.Populate(0, ms.baseline)
			}
			model = append(model, ms)
		}
		if len(model) == 0 {
			return
		}
		m.Seal()
		// Scribble so moved segments carry dirty ranges.
		for _, ms := range model {
			if f := m.Store32(ms.base+uint32(next())%(ms.size-3), 0x5A5A5A5A); f != nil {
				t.Fatal(f)
			}
		}

		var moves []Move
		for n := int(next() % 5); n > 0; n-- {
			k := int(next())
			mv := Move{Name: fmt.Sprintf("s%d", k%(len(model)+1)), Base: addr(next())}
			if k%(len(model)+1) < len(model) {
				size := model[k%(len(model)+1)].size
				switch next() % 4 {
				case 1:
					mv.Data = bytes.Repeat([]byte{next()}, int(size))
				case 2:
					mv.Data = make([]byte, size+1)
				}
			}
			moves = append(moves, mv)
		}

		// The model's verdict.
		final := make([]modelSeg, len(model))
		copy(final, model)
		valid := true
		seen := map[string]bool{}
		for _, mv := range moves {
			i := -1
			for j, ms := range final {
				if ms.name == mv.Name {
					i = j
				}
			}
			if i < 0 || seen[mv.Name] {
				valid = false
				break
			}
			seen[mv.Name] = true
			if uint64(mv.Base)+uint64(final[i].size) > 1<<32-1 ||
				(mv.Data != nil && uint32(len(mv.Data)) != final[i].size) {
				valid = false
				break
			}
			final[i].base = mv.Base
			if mv.Data != nil {
				final[i].baseline = mv.Data
			}
		}
		for a := 0; valid && a < len(final); a++ {
			for b := a + 1; b < len(final); b++ {
				x, y := final[a], final[b]
				if x.base < y.base+y.size && y.base < x.base+x.size {
					valid = false
				}
			}
		}

		before, gen := snapshot(m), m.Gen()
		err := m.Rebase(moves)
		if (err == nil) != valid {
			t.Fatalf("Rebase(%+v) = %v, model says valid=%v", moves, err, valid)
		}
		if err != nil {
			if snapshot(m) != before || m.Gen() != gen {
				t.Fatal("refused Rebase changed the space")
			}
			return
		}
		if m.Gen() == gen {
			t.Fatal("Rebase did not bump Gen")
		}
		for _, ms := range final {
			if f := m.Store8(ms.base+ms.size-1, ^ms.baseline[ms.size-1]); f != nil {
				t.Fatal(f)
			}
		}
		if !m.Reset() {
			t.Fatal("Reset refused after Rebase")
		}
		segs := m.Segments()
		for i := 1; i < len(segs); i++ {
			if segs[i-1].Base >= segs[i].Base {
				t.Fatalf("segments out of order: %s@%#x before %s@%#x",
					segs[i-1].Name, segs[i-1].Base, segs[i].Name, segs[i].Base)
			}
		}
		for _, ms := range final {
			s := m.Find(ms.base)
			if s == nil || s.Name != ms.name || s.Base != ms.base {
				t.Fatalf("%s not found at %#x", ms.name, ms.base)
			}
			got, f := m.ReadBytes(ms.base, ms.size)
			if f != nil || !bytes.Equal(got, ms.baseline) {
				t.Fatalf("%s after Reset differs from its baseline (%v)", ms.name, f)
			}
		}
	})
}
