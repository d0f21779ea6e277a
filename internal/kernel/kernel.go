// Package kernel simulates the operating-system half of the lab: it loads
// linked images into an address space (applying ASLR slides to the libc
// and stack the way 32-bit Linux does for a non-PIE binary), populates the
// GOT, seeds stack canaries, services system calls, and classifies how an
// emulated run ended — normal return, crash (the paper's DoS outcome), or
// a spawned root shell (the paper's RCE outcome).
package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/isa/arms"
	"connlab/internal/isa/x86s"
	"connlab/internal/mem"
	"connlab/internal/telemetry"
)

// Sentinel is the poisoned return address the kernel plants for top-level
// calls; control reaching it means the called function returned normally.
// It is never mapped.
const Sentinel uint32 = 0xDEAD0000

// Page is the allocation granule for ASLR slides.
const Page = 0x1000

// StackSize is the size of the mapped stack region.
const StackSize = 1 << 20

// HeapSize is the size of the mapped scratch-heap region.
const HeapSize = 1 << 20

// libcPrefix prefixes the segment names of libc's sections ("libc.text"),
// keeping them apart from the program's.
const libcPrefix = "libc"

// HeapBaseFor returns the fixed base of the scratch heap for arch. The
// heap is never slid by ASLR (matching 32-bit brk heaps of non-PIE
// binaries), so codegen that bakes heap addresses — the victim's emulated
// allocator arena — can rely on these constants.
func HeapBaseFor(arch isa.Arch) uint32 {
	if arch == isa.ArchARMS {
		return 0x00C00000
	}
	return 0x09000000
}

// DefaultInstrBudget bounds one emulated call; exceeding it classifies the
// run as hung (a DoS in its own right).
const DefaultInstrBudget = 10_000_000

// Config describes the protection environment a process runs under — the
// experimental axes of the paper's §III.
type Config struct {
	// WX enables W⊕X (no execution from writable memory).
	WX bool
	// ASLR randomizes the libc base and the stack base per load. The
	// program image itself stays fixed (non-PIE), as in the paper.
	ASLR bool
	// PIE additionally randomizes the program image base (an ablation
	// beyond the paper's setup; defeats the PLT/.bss-based ROP bypass).
	PIE bool
	// Hooks, when non-nil, is installed on the CPU; the CFI mitigation
	// provides a shadow-stack implementation.
	Hooks isa.Hooks
	// Seed drives every randomized decision (ASLR slides, canary values).
	Seed int64
	// ASLREntropyPages is the number of distinct libc slide positions; 0
	// means the default 4096 pages (16 MB of spread, ~12 bits — typical
	// for 32-bit mmap ASLR). Low-entropy configurations model weak
	// embedded ASLR and make brute-forcing measurable.
	ASLREntropyPages int
	// InstrBudget bounds each Call; 0 means DefaultInstrBudget.
	InstrBudget uint64
	// SingleStep forces the pure per-instruction interpreter path,
	// disabling basic-block dispatch. The differential lockstep harness
	// (internal/isa/isatest) uses it as the reference executor; it is
	// also the switch to flip when bisecting a suspected translator bug.
	SingleStep bool
	// LinkOpts tunes program linking (used by the diversity mitigation).
	LinkOpts image.Options
}

// Status is the terminal state of a Call.
type Status uint8

// Call outcome statuses.
const (
	// StatusReturned means the function returned to the kernel sentinel.
	StatusReturned Status = iota + 1
	// StatusShell means the process execed a shell — remote code
	// execution, the paper's headline outcome.
	StatusShell
	// StatusFault is the simulated SIGSEGV/SIGILL crash (DoS outcome).
	StatusFault
	// StatusCFI means a control-flow-integrity hook vetoed a transfer.
	StatusCFI
	// StatusExited means the program called exit().
	StatusExited
	// StatusAborted means a stack-canary check failed (stack smashing
	// detected; crash without code execution).
	StatusAborted
	// StatusTimeout means the instruction budget ran out.
	StatusTimeout
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusReturned:
		return "returned"
	case StatusShell:
		return "shell"
	case StatusFault:
		return "fault"
	case StatusCFI:
		return "cfi-violation"
	case StatusExited:
		return "exited"
	case StatusAborted:
		return "canary-abort"
	case StatusTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// ShellSpawn records a successful exec of a shell. The simulated daemon
// runs as root, so UID is always 0 — "Connman natively runs with root
// permissions" (§III).
type ShellSpawn struct {
	// Path is the resolved program path (always the shell here).
	Path string
	// Command is the -c command for system(); empty for bare shells.
	Command string
	// Via names the service used: "execve", "execlp" or "system".
	Via string
	// UID is the credential of the new process.
	UID int
}

// RunResult is the outcome of one emulated call.
type RunResult struct {
	Status Status
	// RetVal is the ABI return value for StatusReturned.
	RetVal uint32
	// Fault is set for StatusFault (nil for illegal-instruction crashes).
	Fault *mem.Fault
	// Illegal marks an undecodable-instruction crash.
	Illegal bool
	// PC is the program counter at the terminal event.
	PC uint32
	// Reason carries CFI-violation detail.
	Reason string
	// Shell is set for StatusShell.
	Shell *ShellSpawn
	// ExitStatus is set for StatusExited.
	ExitStatus uint32
	// Instructions is the number of instructions retired during the call.
	Instructions uint64
}

// Crashed reports whether the run ended in any abnormal termination
// (fault, CFI kill, canary abort, or hang) — the DoS bucket.
func (r RunResult) Crashed() bool {
	switch r.Status {
	case StatusFault, StatusCFI, StatusAborted, StatusTimeout:
		return true
	default:
		return false
	}
}

// String gives a compact human-readable summary.
func (r RunResult) String() string {
	switch r.Status {
	case StatusShell:
		return fmt.Sprintf("shell via %s (uid %d)", r.Shell.Via, r.Shell.UID)
	case StatusFault:
		if r.Illegal {
			return fmt.Sprintf("fault: illegal instruction at %#08x", r.PC)
		}
		return fmt.Sprintf("fault: %v", r.Fault)
	case StatusCFI:
		return "cfi violation: " + r.Reason
	case StatusReturned:
		return fmt.Sprintf("returned %#x", r.RetVal)
	case StatusExited:
		return fmt.Sprintf("exited %d", r.ExitStatus)
	case StatusAborted:
		return "stack smashing detected"
	case StatusTimeout:
		return "instruction budget exhausted"
	default:
		return "unknown"
	}
}

// Process is one loaded, runnable program instance.
type Process struct {
	cfg  Config
	arch isa.Arch
	cpu  isa.CPU
	m    *mem.Memory

	// Prog is the linked program image; Libc the linked C library.
	Prog *image.Image
	Libc *image.Image
	// progUnit/libcUnit are the units Prog and Libc were linked from,
	// kept so a recycle under a new ASLR/PIE seed can relink them at
	// their new bases.
	progUnit, libcUnit *image.Unit

	// StackTop is the highest stack address (first frame grows down from
	// just below it).
	StackTop uint32

	stdout bytes.Buffer
	shells []ShellSpawn
	rng    *rand.Rand
	budget uint64

	// tel is the process's telemetry shard (nil while telemetry is
	// disabled); lastDCMisses remembers the CPU's monotonic
	// decode-cache totals at the previous flush so each Run contributes
	// only its own delta.
	tel          *telemetry.Shard
	lastDCMisses uint64
	// lastBlock remembers the CPU's monotonic block-translation totals at
	// the previous flush, mirroring lastDCMisses.
	lastBlock isa.BlockStats
	// attempt tags this process's telemetry (run accounting, fault
	// events) with the campaign attempt ID — the per-device splitmix64
	// seed — so kernel-level evidence correlates with the stage spans of
	// the attempt that drove it. Zero outside campaigns.
	attempt uint64

	// guardAddr/canary record the seeded stack-protector guard (guardAddr
	// 0 when the program declares none), letting a same-seed Recycle
	// rewrite it without drawing from the random stream again.
	guardAddr uint32
	canary    uint32
}

// Layout is the seed-derived address-space placement a Load(cfg) produces.
type Layout struct {
	// ProgSlide is the PIE slide applied to every program section base
	// (0 without PIE).
	ProgSlide uint32
	// LibcBase is the libc link base after any ASLR slide.
	LibcBase uint32
	// StackTop is the highest stack address.
	StackTop uint32
}

// layoutFor consumes the layout draws from rng in Load's exact order. It is
// the single source of layout-randomization policy: Load, Recycle's
// reseeded stream, and LayoutFor all go through it.
func layoutFor(arch isa.Arch, cfg Config, rng *rand.Rand) Layout {
	var l Layout
	if cfg.PIE {
		l.ProgSlide = uint32(rng.Intn(0x800)) * Page
	}
	l.LibcBase = image.DefaultLibcBase(arch)
	if cfg.ASLR {
		entropy := cfg.ASLREntropyPages
		if entropy <= 0 {
			entropy = 0x1000
		}
		l.LibcBase += uint32(rng.Intn(entropy)) * Page
	}
	// Without W⊕X the stack is executable, the historical default the
	// paper's first experiments rely on (the permission itself is applied
	// at map time).
	l.StackTop = 0xBFFF8000
	if arch == isa.ArchARMS {
		l.StackTop = 0x7EFF8000
	}
	if cfg.ASLR {
		l.StackTop -= uint32(rng.Intn(0x800)) * 16
		l.StackTop &^= 15
	}
	return l
}

// progLayout returns the program link layout under lay: the fixed non-PIE
// layout, shifted by the PIE slide (which is 0 without PIE).
func progLayout(arch isa.Arch, lay Layout) image.Layout {
	l := image.DefaultProgramLayout(arch)
	l.TextBase += lay.ProgSlide
	l.RODataBase += lay.ProgSlide
	l.GOTBase += lay.ProgSlide
	l.DataBase += lay.ProgSlide
	l.BSSBase += lay.ProgSlide
	return l
}

// gotContents returns the program's .got bytes with every import slot
// pointing at its libc definition, or nil when the program imports
// nothing.
func gotContents(prog, libc *image.Image) ([]byte, error) {
	sec := prog.Section(".got")
	if sec == nil {
		return nil, nil
	}
	b := make([]byte, len(sec.Data))
	for name, slot := range prog.GOT {
		addr, ok := libc.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("load: import %q not provided by libc", name)
		}
		binary.LittleEndian.PutUint32(b[slot-sec.Addr:], addr)
	}
	return b, nil
}

// LayoutFor predicts the placement Load(cfg) would produce for arch — the
// libc base, stack top and PIE slide — without linking or mapping anything.
// Reconnaissance uses it to sample a replica's address constants cheaply;
// the sample is identical to loading a full replica and reading the same
// addresses.
func LayoutFor(arch isa.Arch, cfg Config) Layout {
	return layoutFor(arch, cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// Load links the program unit (at its fixed non-PIE layout unless cfg.PIE)
// and the libc unit (at an ASLR-slid base when cfg.ASLR), maps everything,
// fills the GOT, maps the stack, and seeds the canary guard if the program
// declares one.
func Load(prog *image.Unit, libc *image.Unit, cfg Config) (*Process, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lay := layoutFor(prog.Arch, cfg, rng)

	progImg, err := image.Link(prog, progLayout(prog.Arch, lay), cfg.LinkOpts)
	if err != nil {
		return nil, fmt.Errorf("link program: %w", err)
	}

	libcImg, err := image.Link(libc, image.LibraryLayout(lay.LibcBase), image.Options{})
	if err != nil {
		return nil, fmt.Errorf("link libc: %w", err)
	}

	m := mem.New()
	m.SetWX(cfg.WX)
	if err := progImg.MapInto(m, ""); err != nil {
		return nil, fmt.Errorf("map program: %w", err)
	}
	if err := libcImg.MapInto(m, libcPrefix); err != nil {
		return nil, fmt.Errorf("map libc: %w", err)
	}

	// GOT population: point every import at its libc definition.
	got, err := gotContents(progImg, libcImg)
	if err != nil {
		return nil, err
	}
	if got != nil {
		m.Segment(".got").Populate(0, got)
	}

	// Stack. Without W⊕X the stack is executable, the historical default
	// the paper's first experiments rely on.
	stackTop := lay.StackTop
	perm := mem.PermRWX
	if cfg.WX {
		perm = mem.PermRW
	}
	if _, err := m.Map("stack", stackTop-StackSize, StackSize, perm); err != nil {
		return nil, fmt.Errorf("map stack: %w", err)
	}

	// Scratch heap for packet buffers and daemon state. Like the stack it
	// is executable unless W⊕X is on: 32-bit Linux of the paper's era made
	// brk/mmap data executable too, which is what heap-resident shellcode
	// relies on.
	if _, err := m.Map("heap", HeapBaseFor(prog.Arch), HeapSize, perm); err != nil {
		return nil, fmt.Errorf("map heap: %w", err)
	}

	var cpu isa.CPU
	if prog.Arch == isa.ArchARMS {
		cpu = arms.New(m)
	} else {
		cpu = x86s.New(m)
	}
	if cfg.Hooks != nil {
		cpu.SetHooks(cfg.Hooks)
	}

	p := &Process{
		cfg:      cfg,
		arch:     prog.Arch,
		cpu:      cpu,
		m:        m,
		Prog:     progImg,
		Libc:     libcImg,
		progUnit: prog,
		libcUnit: libc,
		StackTop: stackTop,
		rng:      rng,
		budget:   cfg.InstrBudget,
		tel:      telemetry.Handle(),
	}
	if p.budget == 0 {
		p.budget = DefaultInstrBudget
	}

	// Seal the canary-free baseline: everything mapped and linked so far is
	// what Reset restores when the process is recycled. The canary below is
	// written through the accessors, so a Reset removes it and Recycle
	// reseeds it from the new configuration's stream.
	m.Seal()

	// Canary guard: like glibc, a random value with a zero low byte (the
	// zero byte terminates accidental string copies; the lab's
	// length-prefixed overflow is unaffected, which is why canaries must
	// be checked, not just present).
	if guard, ok := progImg.Lookup("__stack_chk_guard"); ok {
		v := rng.Uint32()<<8 | 0
		if f := m.WriteU32(guard, v); f != nil {
			return nil, fmt.Errorf("load: seed canary: %w", f)
		}
		p.guardAddr, p.canary = guard, v
	}
	return p, nil
}

// Recycle rewinds the process to a freshly loaded state for cfg without
// mapping a new address space: memory resets to the sealed post-load
// baseline, the CPU returns to power-on state, and the process's random
// stream is reseeded and drawn exactly as a fresh Load(cfg) would draw it
// (layout slides, then the canary), so a recycled process is
// indistinguishable from a new one. Under ASLR or PIE a new seed moves
// the layout: only the images whose base moved are relinked, and their
// segments move together with the stack in one atomic mem.Rebase. It
// reports false — leaving memory and the CPU untouched — when cfg changes
// a protection axis or the ASLR entropy, asks for diversity link options,
// or its layout does not fit. Callers fall back to a fresh Load on false.
func (p *Process) Recycle(cfg Config) bool {
	if !p.m.Sealed() {
		return false
	}
	old := p.cfg
	if old.WX != cfg.WX || old.ASLR != cfg.ASLR || old.PIE != cfg.PIE ||
		old.ASLREntropyPages != cfg.ASLREntropyPages {
		return false
	}
	// Diversity relinks the program; a recycled mapping cannot honor it.
	if old.LinkOpts.Order != nil || old.LinkOpts.Pad != nil ||
		cfg.LinkOpts.Order != nil || cfg.LinkOpts.Pad != nil {
		return false
	}
	newSeed := cfg.Seed != old.Seed
	if newSeed {
		// Reseed in place: the stream is the one NewSource(cfg.Seed)
		// yields, without allocating a new source.
		p.rng.Seed(cfg.Seed)
		lay := layoutFor(p.arch, cfg, p.rng)
		if (cfg.ASLR || cfg.PIE) && !p.relocate(cfg, lay) {
			return false
		}
	}
	if !p.m.Reset() {
		return false
	}

	type stateResetter interface{ ResetState() }
	p.cpu.(stateResetter).ResetState()
	p.cpu.SetHooks(cfg.Hooks)

	p.cfg = cfg
	p.budget = cfg.InstrBudget
	if p.budget == 0 {
		p.budget = DefaultInstrBudget
	}
	p.stdout.Reset()
	p.shells = nil
	// Re-take the telemetry handle: a recycled daemon may outlive the
	// enablement epoch it was loaded under (Enable doubles as a reset).
	p.tel = telemetry.Handle()

	// The canary is the next draw after the layout, as in Load. With the
	// same seed every draw replays to the value Load produced, so the
	// recorded canary is rewritten as is.
	if p.guardAddr != 0 {
		if newSeed {
			p.canary = p.rng.Uint32()<<8 | 0
		}
		if f := p.m.WriteU32(p.guardAddr, p.canary); f != nil {
			return false
		}
	}
	return true
}

// relocate moves the process to lay: it relinks only the images whose base
// moved (libc under ASLR, the program under PIE), rewrites the GOT for the
// new libc, and moves their segments and the stack in one mem.Rebase that
// also replaces their sealed baselines. It reports false, with nothing
// changed, when an image fails to link or the new layout does not fit.
func (p *Process) relocate(cfg Config, lay Layout) bool {
	prog, libc := p.Prog, p.Libc
	var err error
	if l := progLayout(p.arch, lay); l != prog.Layout {
		if prog, err = image.Link(p.progUnit, l, cfg.LinkOpts); err != nil {
			return false
		}
	}
	if l := image.LibraryLayout(lay.LibcBase); l != libc.Layout {
		if libc, err = image.Link(p.libcUnit, l, image.Options{}); err != nil {
			return false
		}
	}

	var moves []mem.Move
	if prog != p.Prog || libc != p.Libc {
		got, err := gotContents(prog, libc)
		if err != nil {
			return false
		}
		if prog != p.Prog {
			for _, s := range prog.Sections {
				mv := mem.Move{Name: s.Name, Base: s.Addr, Data: s.Data}
				if s.Name == ".got" {
					mv.Data = got
				}
				moves = append(moves, mv)
			}
		} else if got != nil {
			moves = append(moves, mem.Move{Name: ".got", Base: prog.Layout.GOTBase, Data: got})
		}
		if libc != p.Libc {
			for _, s := range libc.Sections {
				moves = append(moves, mem.Move{Name: libcPrefix + s.Name, Base: s.Addr, Data: s.Data})
			}
		}
	}
	if lay.StackTop != p.StackTop {
		moves = append(moves, mem.Move{Name: "stack", Base: lay.StackTop - StackSize})
	}
	if err := p.m.Rebase(moves); err != nil {
		return false
	}
	p.Prog, p.Libc, p.StackTop = prog, libc, lay.StackTop
	if p.guardAddr != 0 {
		p.guardAddr = prog.MustLookup("__stack_chk_guard")
	}
	return true
}

// Arch returns the process architecture.
func (p *Process) Arch() isa.Arch { return p.arch }

// CPU returns the process CPU (primarily for the debugger).
func (p *Process) CPU() isa.CPU { return p.cpu }

// SetAttempt tags subsequent run accounting and fault events with the
// campaign attempt ID (the per-device splitmix64 seed). The campaign
// engine calls it when it binds a daemon to a device; recycled daemons
// are re-tagged for each new device.
func (p *Process) SetAttempt(id uint64) { p.attempt = id }

// Mem returns the process address space.
func (p *Process) Mem() *mem.Memory { return p.m }

// Config returns the protection configuration the process was loaded with.
func (p *Process) Config() Config { return p.cfg }

// Stdout returns everything the program has written to fd 1.
func (p *Process) Stdout() string { return p.stdout.String() }

// Shells returns every shell spawn recorded so far.
func (p *Process) Shells() []ShellSpawn {
	out := make([]ShellSpawn, len(p.shells))
	copy(out, p.shells)
	return out
}

// HeapBase returns the base of the scratch heap region.
func (p *Process) HeapBase() uint32 {
	return p.m.Segment("heap").Base
}
