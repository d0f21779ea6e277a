package main

import (
	"cmp"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// The host-speed probe.
//
// On a shared host the speed of a vCPU drifts by a third or more within
// minutes, as the neighbours' load moves the clock, the caches and the
// branch predictors, and every wall time measured there drifts with it.
// So the measured loop also times a fixed kernel of the benchmark's own,
// which no change to the lab can speed up or slow down, every probeEvery.
// Each time is scaled by probeRef over the kernel's time around it: it
// reads as if the host ran at the speed at which the kernel takes
// probeRef. A lab change that costs 10% more time still reads 10%
// slower; a host that runs 10% slower reads about the same.
//
// The kernel is three standard-library routines on fixed inputs:
// json.Valid (a state machine stepping through indirect calls, the shape
// of the emulator's dispatch), DEFLATE compression (hash-chain matching
// over a large window, the shape of the LZSS codec and the gadget scan)
// and float formatting and parsing (branchy arithmetic). Five kernels
// were timed, in every round of one run of each workload, on a host
// whose speed drifted by 1.4–1.6× within the run. Of their sums, this
// one tracked all three workloads' round-to-round speed about as well as
// any, for the least time: it left 5–7% of a variation that was 10–16%
// in the raw figures.

// probeRef is the kernel time that defines the reference host speed,
// about its time on an idle vCPU of a 2.0 GHz Xeon (Sapphire Rapids).
const probeRef = 2 * time.Millisecond

// probeEvery is how often the measured loop runs the probe.
const probeEvery = 100 * time.Millisecond

// The kernel's inputs: a JSON document of about 165 kB, the DEFLATE
// writer (reset for every run) and 2000 decimal floats.
var (
	probeDoc = func() []byte {
		b := []byte{'['}
		for i := 0; i < 1500; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"id":%d,"name":"cell-%d","arch":"x86s","row":["none","wx"],"seed":%d.5e3,"ok":true,"nest":{"a":[1,2,3],"b":null}}`, i, i*7, i*13)
		}
		return append(b, ']')
	}()
	probeZ, _ = flate.NewWriter(io.Discard, 5)
	probeNums = func() []string {
		s := make([]string, 2000)
		for i := range s {
			s[i] = strconv.FormatFloat(float64(i)*1.37e-3+float64(i%7)*1e5, 'g', -1, 64)
		}
		return s
	}()
	probeBuf  = make([]byte, 0, 64)
	probeSink uint64
)

// probe runs the kernel and returns its time. It allocates nothing.
func probe() time.Duration {
	t0 := time.Now()
	var x uint64
	if json.Valid(probeDoc) {
		x++
	}
	probeZ.Reset(io.Discard)
	probeZ.Write(probeDoc[:64<<10])
	probeZ.Close()
	for _, n := range probeNums {
		f, _ := strconv.ParseFloat(n, 64)
		probeBuf = strconv.AppendFloat(probeBuf[:0], f*1.0001, 'g', -1, 64)
		x += uint64(len(probeBuf))
	}
	probeSink += x
	return time.Since(t0)
}

// probeMark is one probe run: when it started, as an offset from the
// phase start, and how long it took.
type probeMark struct{ at, took time.Duration }

// factors returns, for each probe, the factor that scales the times
// measured after it, up to the next probe, to the reference host speed:
// probeRef over the median time of the probe and its two neighbours, so
// that one preempted probe does not skew its stretch.
func factors(ps []probeMark) []float64 {
	f := make([]float64, len(ps))
	for k := range ps {
		var near []time.Duration
		for j := max(0, k-1); j <= min(len(ps)-1, k+1); j++ {
			near = append(near, ps[j].took)
		}
		f[k] = probeRef.Seconds() / median(near).Seconds()
	}
	return f
}

// normalized returns the phase's op latencies and busy time, each
// stretch between two probes scaled by its factor. An op belongs to the
// stretch it started in.
func (p *phase) normalized() ([]time.Duration, time.Duration) {
	f := factors(p.probes)
	if len(f) == 0 {
		return pooled(p.ops), p.busy()
	}
	lat := make([]time.Duration, len(p.ops))
	for i, o := range p.ops {
		start := o.done - o.lat
		k, _ := slices.BinarySearchFunc(p.probes, start, func(m probeMark, t time.Duration) int { return cmp.Compare(m.at, t) })
		if k == len(p.probes) || p.probes[k].at > start {
			k--
		}
		lat[i] = scale(o.lat, f[max(0, k)])
	}
	var busy time.Duration
	for k, m := range p.probes {
		end := p.wall
		if k+1 < len(p.probes) {
			end = p.probes[k+1].at
		}
		busy += scale(end-m.at-m.took, f[k])
	}
	return lat, busy
}

// speed returns the factor that scales a time measured just before the
// phase to the reference host speed: probeRef over the phase's median
// probe time, or 1 when the phase ran no probe.
func (p *phase) speed() float64 {
	if len(p.probes) == 0 {
		return 1
	}
	took := make([]time.Duration, len(p.probes))
	for i, m := range p.probes {
		took[i] = m.took
	}
	return probeRef.Seconds() / median(took).Seconds()
}

// scale multiplies d by f.
func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
