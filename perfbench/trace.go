package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"connlab/internal/campaign"
	"connlab/internal/dns"
	"connlab/internal/dnsserver"
	"connlab/internal/exploit"
	"connlab/internal/gadget"
	"connlab/internal/image"
	"connlab/internal/isa"
	"connlab/internal/kernel"
	"connlab/internal/netsim"
	"connlab/internal/snapshot"
	"connlab/internal/victim"
)

// layer names a span: one public call into one layer of the program.
type layer uint8

const (
	lTargetSetup layer = iota
	lExploitRecon
	lExploitBuild
	lCacheGet
	lVictimBuild
	lImageLink
	lGadgetScan
	lSnapshotLoad
	lKernelLoad
	lKernelRecycle
	lKernelRun
	lDNSEncode
	lHandleResponse
	lNetsimWorld
	lNetsimDeliver
	lClassify
	numLayers
)

var layerNames = [numLayers]string{
	lTargetSetup:    "campaign.TargetSetup",
	lExploitRecon:   "Engine.Recon",
	lExploitBuild:   "Engine.Payload",
	lCacheGet:       "engine cache hit",
	lVictimBuild:    "victim.BuildProgram|image.BuildLibc",
	lImageLink:      "image.Link",
	lGadgetScan:     "gadget.NewFinder",
	lSnapshotLoad:   "Store.Load",
	lKernelLoad:     "victim.NewDaemonWith",
	lKernelRecycle:  "Daemon.Recycle",
	lKernelRun:      "Process.CallAddr",
	lDNSEncode:      "Exploit.AppendResponse",
	lHandleResponse: "Daemon.HandleResponse",
	lNetsimWorld:    "netsim/dnsserver world",
	lNetsimDeliver:  "Network.Run",
	lClassify:       "campaign.Classify",
}

// span is one timed call. A shadow span is a call the benchmark made a
// second time, directly and on the same inputs, to time a layer that the
// real call nests; it is a child of the real call's span and lies outside
// the attempt's wall time.
type span struct {
	layer      layer
	shadow     bool
	parent     int32 // index in the tracer's spans, -1 at top level
	attempt    uint64
	start, end int64  // nanoseconds since the trace epoch
	instr      uint64 // instructions retired, for kernel runs
}

// attemptRec is one traced attempt: its wall time and its spans.
type attemptRec struct {
	start, end  int64
	first, last int32 // spans[first:last] were opened during the attempt
	measured    bool  // false for the traced set-up's attempts
}

// tracer holds one client's spans in memory; they are aggregated and
// written out when the run ends.
type tracer struct {
	epoch    time.Time
	spans    []span
	attempts []attemptRec
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its index.
func (t *tracer) add(l layer, parent int32, attempt uint64, start, end int64, shadow bool) int32 {
	t.spans = append(t.spans, span{layer: l, shadow: shadow, parent: parent, attempt: attempt, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// attackQuery is the lab's synthetic upstream lookup, the query a
// direct-delivery attempt answers (the same constant the engine uses).
var attackQuery = func() []byte {
	b, err := dns.NewQuery(0x1337, "time.iot-vendor.example", dns.TypeA).Encode()
	if err != nil {
		panic(err)
	}
	return b
}()

// The per-device rogue-AP world, as the engine builds it.
const worldSSID = "HomeIoT"

var (
	worldResolverIP = netsim.IP{8, 8, 8, 8}
	worldLegitGW    = netsim.IP{192, 168, 1, 1}
	worldLegitPool  = netsim.IP{192, 168, 1, 100}
	worldPineIP     = netsim.IP{172, 16, 42, 1}
	worldRoguePool  = netsim.IP{172, 16, 42, 100}
)

type unitKey struct {
	arch isa.Arch
	opts victim.BuildOpts
}

type poolKey struct {
	arch    isa.Arch
	opts    victim.BuildOpts
	wx      bool
	entropy int
}

type reconKey struct {
	arch     isa.Arch
	wx, aslr bool
	build    victim.BuildOpts
}

type payloadKey struct {
	recon reconKey
	kind  exploit.Kind
}

// reconMiss is an Engine.Recon call that built the recon; replay times
// the layers it nests.
type reconMiss struct {
	tr   *tracer
	span int32
	cell campaign.Scenario
}

// session is the decomposed attempt path: the public calls runDevice
// makes, in its order, each timed as a span. It keeps its own program
// units and daemon pool, with the engine's pooling rule.
type session struct {
	eng       *campaign.Engine
	reconSeed int64
	store     *snapshot.Store

	units   *campaign.Cache[unitKey, *image.Unit]
	libcs   *campaign.Cache[isa.Arch, *image.Unit]
	seenRec sync.Map // reconKey; the first caller is taken as the builder
	seenPay sync.Map // payloadKey, likewise
	mu      sync.Mutex
	idle    map[poolKey][]*victim.Daemon
	misses  []reconMiss
	// stats counts recycled and fresh daemons; sessions may share one.
	stats *poolStats
}

// poolStats counts the decomposed path's daemon acquisitions.
type poolStats struct{ recycled, fresh atomic.Int64 }

func newSession(eng *campaign.Engine, reconSeed int64, store *snapshot.Store, ps *poolStats) *session {
	return &session{
		eng: eng, reconSeed: reconSeed, store: store, stats: ps,
		units: campaign.NewCache[unitKey, *image.Unit](),
		libcs: campaign.NewCache[isa.Arch, *image.Unit](),
		idle:  make(map[poolKey][]*victim.Daemon),
	}
}

// outcome is what a decomposed attempt produced.
type outcome struct {
	outcome   campaign.Outcome
	instr     uint64
	hijacked  int
	datagrams int
}

// shadowRun is the emulated parse of one attempt, kept so it can be run
// again on an equivalent daemon to time the kernel on its own.
type shadowRun struct {
	parent int32
	arch   isa.Arch
	opts   victim.BuildOpts
	fresh  bool // the real daemon was a fresh load, not a recycled one
	cfg    kernel.Config
	pkt    []byte
	want   kernel.RunResult
}

// attempt runs one cell through the decomposed path. It returns the
// outcome and, when a packet reached the daemon, the parse to shadow.
func (s *session) attempt(tr *tracer, cell campaign.Scenario, measured bool) (outcome, *shadowRun, error) {
	id := uint64(cell.TargetSeed)
	rec := attemptRec{first: int32(len(tr.spans)), measured: measured, start: tr.now()}
	defer func() {
		rec.end = tr.now()
		rec.last = int32(len(tr.spans))
		tr.attempts = append(tr.attempts, rec)
	}()
	var out outcome
	rk := reconKey{arch: cell.Arch, wx: cell.Protection.WX, aslr: cell.Protection.ASLR, build: cell.Build}

	// Recon, then payload: runDevice's first two calls.
	_, seen := s.seenRec.LoadOrStore(rk, true)
	t := tr.now()
	_, err := s.eng.Recon(cell)
	if !seen {
		i := tr.add(lExploitRecon, -1, id, t, tr.now(), false)
		s.mu.Lock()
		s.misses = append(s.misses, reconMiss{tr: tr, span: i, cell: cell})
		s.mu.Unlock()
	} else {
		tr.add(lCacheGet, -1, id, t, tr.now(), false)
	}
	if err != nil {
		return out, nil, fmt.Errorf("recon %s: %w", label(cell), err)
	}
	_, seen = s.seenPay.LoadOrStore(payloadKey{recon: rk, kind: cell.Kind}, true)
	t = tr.now()
	ex, err := s.eng.Payload(cell)
	if !seen {
		tr.add(lExploitBuild, -1, id, t, tr.now(), false)
	} else {
		tr.add(lCacheGet, -1, id, t, tr.now(), false)
	}
	if err != nil {
		out.outcome = campaign.OutcomeBuildFail
		return out, nil, nil
	}

	t = tr.now()
	cfg, opts, ss, err := campaign.TargetSetup(cell.Arch, cell.Protection, cell.Build, cell.TargetSeed)
	tr.add(lTargetSetup, -1, id, t, tr.now(), false)
	if err != nil {
		return out, nil, err
	}
	d, fresh, err := s.acquire(tr, cell.Arch, opts, cfg, id)
	if err != nil {
		return out, nil, err
	}
	d.Process().SetAttempt(id)
	if ss != nil {
		ss.Arm(d.Process())
	}
	sh := &shadowRun{arch: cell.Arch, opts: opts, fresh: fresh, cfg: cfg}

	var res kernel.RunResult
	if cell.Pineapple {
		t = tr.now()
		world, mitm, craft, err := buildWorld(tr, d, ex, id)
		tr.add(lNetsimWorld, -1, id, t, tr.now(), false)
		if err != nil {
			return out, nil, err
		}
		t = tr.now()
		out.datagrams = world.Run(64)
		sh.parent = tr.add(lNetsimDeliver, -1, id, t, tr.now(), false)
		if craft.end > 0 {
			tr.add(lDNSEncode, sh.parent, id, craft.start, craft.end, false)
		}
		sh.pkt = craft.pkt
		out.hijacked = mitm.Queries
		res = d.LastResult()
		t = tr.now()
		switch {
		case len(d.Shells()) > 0:
			out.outcome = campaign.OutcomeShell
		case d.Crashed():
			out.outcome = campaign.OutcomeCrash
		default:
			out.outcome = campaign.OutcomeNoEffect
		}
		tr.add(lClassify, -1, id, t, tr.now(), false)
	} else {
		t = tr.now()
		sh.pkt, err = ex.AppendResponse(nil, attackQuery)
		tr.add(lDNSEncode, -1, id, t, tr.now(), false)
		if err != nil {
			return out, nil, err
		}
		t = tr.now()
		res, err = d.HandleResponse(sh.pkt)
		sh.parent = tr.add(lHandleResponse, -1, id, t, tr.now(), false)
		if err != nil {
			return out, nil, err
		}
		t = tr.now()
		out.outcome, _ = campaign.Classify(res)
		tr.add(lClassify, -1, id, t, tr.now(), false)
	}
	out.instr = res.Instructions
	sh.want = res
	if d.Handled() != 1 {
		sh = nil
	}
	s.release(cell.Arch, opts, cfg, d)
	return out, sh, nil
}

// craftProbe times the MITM's AppendResponse inside Network.Run and
// keeps the response it crafted.
type craftProbe struct {
	tr         *tracer
	ex         *exploit.Exploit
	start, end int64
	pkt        []byte
}

func (c *craftProbe) craft(dst, q []byte) ([]byte, error) {
	c.start = c.tr.now()
	b, err := c.ex.AppendResponse(dst, q)
	c.end = c.tr.now()
	c.pkt = append(c.pkt[:0], b...)
	return b, err
}

// buildWorld builds one device's rogue-AP world and queues its lookup,
// with the calls the engine's Pineapple delivery makes.
func buildWorld(tr *tracer, d *victim.Daemon, ex *exploit.Exploit, id uint64) (*netsim.Network, *dnsserver.MITM, *craftProbe, error) {
	world := netsim.New()
	world.SetAttempt(id)
	world.AddAP(&netsim.AccessPoint{
		Name: "home-router", SSID: worldSSID, Signal: 50,
		PoolBase: worldLegitPool, Gateway: worldLegitGW, DNS: worldResolverIP,
	})
	resolverHost, err := world.AddHost("resolver", worldResolverIP)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := dnsserver.RunResolver(resolverHost, map[string][4]byte{
		"time.iot-vendor.example": {93, 184, 216, 34},
	}); err != nil {
		return nil, nil, nil, err
	}
	pineHost, err := world.AddHost("pineapple", worldPineIP)
	if err != nil {
		return nil, nil, nil, err
	}
	probe := &craftProbe{tr: tr, ex: ex}
	mitm, err := dnsserver.RunMITMWire(pineHost, probe.craft)
	if err != nil {
		return nil, nil, nil, err
	}
	world.AddAP(&netsim.AccessPoint{
		Name: "pineapple", SSID: worldSSID, Signal: 95,
		PoolBase: worldRoguePool, Gateway: worldPineIP, DNS: worldPineIP,
	})
	host, err := world.AddHost("iot", netsim.IP{})
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := dnsserver.RunProxy(host, d); err != nil {
		return nil, nil, nil, err
	}
	client, err := dnsserver.NewClient(host)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := host.Station(worldSSID).Associate(); err != nil {
		return nil, nil, nil, fmt.Errorf("associate: %w", err)
	}
	if _, err := client.Lookup(netsim.Addr{IP: host.IP, Port: dnsserver.DNSPort}, "time.iot-vendor.example"); err != nil {
		return nil, nil, nil, err
	}
	return world, mitm, probe, nil
}

// poolable is the engine's recycling rule: a daemon whose layout does not
// depend on the seed can serve any device of its configuration.
func poolable(cfg kernel.Config) bool {
	return !cfg.ASLR && !cfg.PIE && cfg.LinkOpts.Order == nil && cfg.LinkOpts.Pad == nil
}

// acquire recycles a pooled daemon or loads a fresh one, and reports
// which it did.
func (s *session) acquire(tr *tracer, arch isa.Arch, opts victim.BuildOpts, cfg kernel.Config, id uint64) (*victim.Daemon, bool, error) {
	if poolable(cfg) {
		if d := s.takeIdle(arch, opts, cfg); d != nil {
			t := tr.now()
			ok := d.Recycle(cfg)
			tr.add(lKernelRecycle, -1, id, t, tr.now(), false)
			if ok {
				s.stats.recycled.Add(1)
				return d, false, nil
			}
		}
	}
	s.stats.fresh.Add(1)
	prog, err := s.unit(tr, id, unitKey{arch: arch, opts: opts})
	if err != nil {
		return nil, true, err
	}
	libc, err := s.libc(tr, id, arch)
	if err != nil {
		return nil, true, err
	}
	t := tr.now()
	d, err := victim.NewDaemonWith(prog, libc, cfg)
	tr.add(lKernelLoad, -1, id, t, tr.now(), false)
	return d, true, err
}

// release parks a daemon for a later device of its configuration.
func (s *session) release(arch isa.Arch, opts victim.BuildOpts, cfg kernel.Config, d *victim.Daemon) {
	if !poolable(cfg) {
		return
	}
	k := poolKey{arch: arch, opts: opts, wx: cfg.WX, entropy: cfg.ASLREntropyPages}
	s.mu.Lock()
	s.idle[k] = append(s.idle[k], d)
	s.mu.Unlock()
}

// takeIdle pops a parked daemon of a configuration, or returns nil.
func (s *session) takeIdle(arch isa.Arch, opts victim.BuildOpts, cfg kernel.Config) *victim.Daemon {
	k := poolKey{arch: arch, opts: opts, wx: cfg.WX, entropy: cfg.ASLREntropyPages}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle[k])
	if n == 0 {
		return nil
	}
	d := s.idle[k][n-1]
	s.idle[k] = s.idle[k][:n-1]
	return d
}

// unit returns the program unit for a build, building it on first use.
func (s *session) unit(tr *tracer, id uint64, k unitKey) (*image.Unit, error) {
	built := false
	t := tr.now()
	u, err := s.units.Get(k, func() (*image.Unit, error) {
		built = true
		return victim.BuildProgram(k.arch, k.opts)
	})
	tr.add(buildOrHit(built), -1, id, t, tr.now(), false)
	return u, err
}

// buildOrHit names a build-once cache call by what it did.
func buildOrHit(built bool) layer {
	if built {
		return lVictimBuild
	}
	return lCacheGet
}

// libc returns the libc unit for an architecture, building it on first use.
func (s *session) libc(tr *tracer, id uint64, arch isa.Arch) (*image.Unit, error) {
	built := false
	t := tr.now()
	u, err := s.libcs.Get(arch, func() (*image.Unit, error) {
		built = true
		return image.BuildLibc(arch)
	})
	tr.add(buildOrHit(built), -1, id, t, tr.now(), false)
	return u, err
}

// shadow runs an attempt's emulated parse again on an equivalent daemon —
// a pooled one recycled to the same seed when the real daemon was
// recycled, a fresh load when it was fresh — and times the kernel call
// alone. The result must match the real run exactly.
func (s *session) shadow(tr *tracer, cell campaign.Scenario, sh *shadowRun) error {
	var d *victim.Daemon
	if !sh.fresh {
		if d = s.takeIdle(sh.arch, sh.opts, sh.cfg); d != nil {
			if !d.Recycle(sh.cfg) {
				return fmt.Errorf("%s: shadow recycle refused", label(cell))
			}
			defer s.release(sh.arch, sh.opts, sh.cfg, d)
		}
	}
	if d == nil {
		// A fresh load when the real daemon was fresh, or when another
		// client holds every pooled daemon; recycled equals fresh.
		prog, err := s.units.Get(unitKey{arch: sh.arch, opts: sh.opts}, func() (*image.Unit, error) {
			return victim.BuildProgram(sh.arch, sh.opts)
		})
		if err != nil {
			return err
		}
		libc, err := s.libcs.Get(sh.arch, func() (*image.Unit, error) { return image.BuildLibc(sh.arch) })
		if err != nil {
			return err
		}
		if d, err = victim.NewDaemonWith(prog, libc, sh.cfg); err != nil {
			return err
		}
	}
	proc := d.Process()
	base := proc.HeapBase()
	if f := proc.Mem().WriteBytes(base, sh.pkt); f != nil {
		return fmt.Errorf("shadow: stage packet: %v", f)
	}
	entry, ok := proc.Prog.Lookup("parse_response")
	if !ok {
		return fmt.Errorf("shadow: no parse_response")
	}
	id := uint64(cell.TargetSeed)
	t := tr.now()
	got, err := proc.CallAddr(entry, base, uint32(len(sh.pkt)))
	i := tr.add(lKernelRun, sh.parent, id, t, tr.now(), true)
	tr.spans[i].instr = got.Instructions
	if err != nil {
		return fmt.Errorf("shadow: %w", err)
	}
	if got.Status != sh.want.Status || got.Instructions != sh.want.Instructions {
		return fmt.Errorf("%s seed %d: shadow parse %v/%d instr, real %v/%d", label(cell), cell.TargetSeed,
			got.Status, got.Instructions, sh.want.Status, sh.want.Instructions)
	}
	return nil
}

// replay times the layers nested in each recon the session built, by
// calling them directly on the recon's inputs in the order the recons
// ran, from a flushed scan cache so that scans hit and miss as they did.
// With a store it also times a Load of every store entry. rt receives
// the store spans, which belong to no attempt.
func (s *session) replay(rt *tracer) error {
	gadget.FlushScanCache()
	for _, m := range s.misses {
		tr, arch, id := m.tr, m.cell.Arch, uint64(m.cell.TargetSeed)
		t := tr.now()
		prog, err := victim.BuildProgram(arch, m.cell.Build)
		tr.add(lVictimBuild, m.span, id, t, tr.now(), true)
		if err != nil {
			return err
		}
		t = tr.now()
		libc, err := image.BuildLibc(arch)
		tr.add(lVictimBuild, m.span, id, t, tr.now(), true)
		if err != nil {
			return err
		}
		t = tr.now()
		img, err := image.Link(prog, image.DefaultProgramLayout(arch), image.Options{})
		tr.add(lImageLink, m.span, id, t, tr.now(), true)
		if err != nil {
			return err
		}
		replica := kernel.Config{WX: m.cell.Protection.WX, ASLR: m.cell.Protection.ASLR, Seed: s.reconSeed}
		t = tr.now()
		_, err = image.Link(libc, image.LibraryLayout(kernel.LayoutFor(arch, replica).LibcBase), image.Options{})
		tr.add(lImageLink, m.span, id, t, tr.now(), true)
		if err != nil {
			return err
		}
		t = tr.now()
		gadget.NewFinder(img)
		tr.add(lGadgetScan, m.span, id, t, tr.now(), true)
	}
	s.misses = s.misses[:0]
	if s.store == nil {
		return nil
	}
	entries, err := s.store.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		t := rt.now()
		_, err := s.store.Load(e.Key)
		rt.add(lSnapshotLoad, -1, 0, t, rt.now(), true)
		if err != nil {
			return fmt.Errorf("store entry %s: %w", e.Name, err)
		}
	}
	return nil
}
