package victim

import (
	"bytes"
	"testing"

	"connlab/internal/dns"
	"connlab/internal/isa"
	"connlab/internal/kernel"
)

// benignResponse builds a normal Type A response to a query.
func benignResponse(t *testing.T, q *dns.Message) []byte {
	t.Helper()
	resp := dns.NewResponse(q)
	resp.Answers = []dns.RR{dns.A(q.Questions[0].Name, 300, [4]byte{93, 184, 216, 34})}
	b, err := resp.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// overflowResponse builds a response whose answer NAME is an oversized
// label stream: n labels of labelLen filler bytes each.
func overflowResponse(t *testing.T, q *dns.Message, labels, labelLen int, fill byte) []byte {
	t.Helper()
	var raw []byte
	for i := 0; i < labels; i++ {
		raw = append(raw, byte(labelLen))
		raw = append(raw, bytes.Repeat([]byte{fill}, labelLen)...)
	}
	raw = append(raw, 0)
	resp := dns.NewResponse(q)
	resp.Answers = []dns.RR{{
		RawName: raw, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: []byte{10, 0, 0, 1},
	}}
	b, err := resp.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func query() *dns.Message {
	return dns.NewQuery(0x1234, "iot.example.com", dns.TypeA)
}

func TestBenignResponseParsesOnBothArchitectures(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		for _, patched := range []bool{false, true} {
			name := string(arch) + "/patched=" + boolStr(patched)
			t.Run(name, func(t *testing.T) {
				d, err := NewDaemon(arch, BuildOpts{Patched: patched}, kernel.Config{Seed: 1})
				if err != nil {
					t.Fatalf("daemon: %v", err)
				}
				res, err := d.HandleResponse(benignResponse(t, query()))
				if err != nil {
					t.Fatalf("handle: %v", err)
				}
				if res.Status != kernel.StatusReturned {
					t.Fatalf("status = %v (%v), want returned", res.Status, res)
				}
				if res.RetVal != 0 {
					t.Errorf("parse_response = %#x, want 0", res.RetVal)
				}
				if d.Crashed() {
					t.Error("daemon crashed on a benign response")
				}
			})
		}
	}
}

// TestE1OverflowCrashesVulnerableOnly is experiment E1: the oversized
// Type A response crashes Connman 1.34 (DoS) and is rejected by 1.35.
func TestE1OverflowCrashesVulnerableOnly(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			pkt := overflowResponse(t, query(), 30, 63, 'A') // ~1920 bytes of name

			vuln, err := NewDaemon(arch, BuildOpts{}, kernel.Config{Seed: 1})
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			res, err := vuln.HandleResponse(pkt)
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			if !res.Crashed() {
				t.Fatalf("vulnerable build survived the overflow: %v", res)
			}
			if !vuln.Crashed() {
				t.Error("daemon not marked crashed")
			}

			patched, err := NewDaemon(arch, BuildOpts{Patched: true}, kernel.Config{Seed: 1})
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			res, err = patched.HandleResponse(pkt)
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			if res.Status != kernel.StatusReturned {
				t.Fatalf("patched build did not survive: %v", res)
			}
			// parse_response reports the malformed record as an error (-1).
			if res.RetVal != 0xFFFFFFFF {
				t.Errorf("patched parse_response = %#x, want -1", res.RetVal)
			}
		})
	}
}

// TestCanaryConvertsHijackToAbort: with stack protectors on, the overflow
// is detected at function exit.
func TestCanaryConvertsHijackToAbort(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := NewDaemon(arch, BuildOpts{Canary: true}, kernel.Config{Seed: 1})
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			// 17 labels of 62 zero bytes: 1071 stream bytes — past the
			// canary, within the mapped stack, and (for arms) the bytes
			// landing on the cache-entry pointer are NULL so execution
			// survives to the canary check, as the paper's ARM payloads
			// had to arrange.
			res, err := d.HandleResponse(overflowResponse(t, query(), 17, 62, 0))
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			if res.Status != kernel.StatusAborted {
				t.Fatalf("status = %v (%v), want canary abort", res.Status, res)
			}
		})
	}
}

func TestDaemonRejectsNonResponses(t *testing.T) {
	d, err := NewDaemon(isa.ArchX86S, BuildOpts{}, kernel.Config{Seed: 1})
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	q, _ := query().Encode()
	if _, err := d.HandleResponse(q); err == nil {
		t.Error("daemon accepted a query as a response")
	}
	if _, err := d.HandleResponse([]byte{1, 2, 3}); err == nil {
		t.Error("daemon accepted a truncated packet")
	}
	if d.Handled() != 0 {
		t.Errorf("handled = %d, want 0", d.Handled())
	}
}

// TestDaemonRestart: a crashed daemon comes back serving, with the same
// config and therefore the same layout, even under ASLR and PIE.
func TestDaemonRestart(t *testing.T) {
	d, err := NewDaemon(isa.ArchARMS, BuildOpts{}, kernel.Config{ASLR: true, PIE: true, Seed: 1})
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	layout := func() [3]uint32 {
		p := d.Process()
		return [3]uint32{p.Prog.Layout.TextBase, p.Libc.Layout.TextBase, p.StackTop}
	}
	before := layout()
	if _, err := d.HandleResponse(overflowResponse(t, query(), 30, 63, 'A')); err != nil {
		t.Fatalf("handle: %v", err)
	}
	if !d.Crashed() {
		t.Fatal("want crash")
	}
	if _, err := d.HandleResponse(benignResponse(t, query())); err == nil {
		t.Error("crashed daemon still handled packets")
	}
	if err := d.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if after := layout(); after != before {
		t.Errorf("layout after restart = %#x, want unchanged %#x", after, before)
	}
	res, err := d.HandleResponse(benignResponse(t, query()))
	if err != nil {
		t.Fatalf("handle after restart: %v", err)
	}
	if res.Status != kernel.StatusReturned {
		t.Errorf("status after restart = %v, want returned", res.Status)
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TestPIERecycleCallsRelocatedParser: under PIE a new-seed recycle moves
// parse_response, and the daemon must call it at its new address — with
// the same result a fresh daemon for that seed produces.
func TestPIERecycleCallsRelocatedParser(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchX86S, isa.ArchARMS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := NewDaemon(arch, BuildOpts{}, kernel.Config{PIE: true, Seed: 1})
			if err != nil {
				t.Fatalf("daemon: %v", err)
			}
			if _, err := d.HandleResponse(benignResponse(t, query())); err != nil {
				t.Fatalf("handle: %v", err)
			}
			old := d.Process().Prog.MustLookup("parse_response")
			cfg := kernel.Config{PIE: true, Seed: 2}
			if !d.Recycle(cfg) {
				t.Fatal("PIE recycle under a new seed refused")
			}
			if moved := d.Process().Prog.MustLookup("parse_response"); moved == old {
				t.Fatalf("parse_response stayed at %#x; pick seeds with different slides", old)
			}
			fresh, err := NewDaemon(arch, BuildOpts{}, cfg)
			if err != nil {
				t.Fatalf("fresh daemon: %v", err)
			}
			got, err := d.HandleResponse(benignResponse(t, query()))
			if err != nil {
				t.Fatalf("recycled handle: %v", err)
			}
			want, err := fresh.HandleResponse(benignResponse(t, query()))
			if err != nil {
				t.Fatalf("fresh handle: %v", err)
			}
			if got.Status != kernel.StatusReturned || got.Status != want.Status ||
				got.RetVal != want.RetVal || got.Instructions != want.Instructions {
				t.Errorf("recycled run %+v, fresh %+v", got, want)
			}
		})
	}
}
