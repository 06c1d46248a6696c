package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one trial share Trial;
// Parent is the enclosing span's ID (0 for a trial's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trial   int    `json:"trial"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer only
// times calls.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 when not tracing).
func (t *tracer) begin(name string, parent, trial int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trial: trial, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds()
}

// timed runs fn, records it as a span under parent when tracing, and
// returns its wall seconds.
func (t *tracer) timed(name string, parent, trial int, fn func()) float64 {
	id := t.begin(name, parent, trial)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// write stores the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "host": hostShape(), "spans": t.spans,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// runtimeSample reads the GC counters the runtime.* metrics derive from.
type runtimeSample struct {
	gcCPU, busyCPU float64
	gcCycles       uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:    s[0].Value.Float64(),
		busyCPU:  s[1].Value.Float64() - s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

// cpuProfile collects self time per package across several profiled
// regions of one run.
type cpuProfile struct {
	self  map[string]int64 // nanoseconds by share name
	total int64
	buf   bytes.Buffer
}

func newCPUProfile() *cpuProfile { return &cpuProfile{self: make(map[string]int64)} }

// profile runs fn under the CPU profiler and folds its samples in.
func (p *cpuProfile) profile(fn func()) error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return p.fold(p.buf.Bytes())
}

// shareOf maps a leaf function's package to a cpu_share.* name.
var shareOf = map[string]string{
	"shadowmeter/internal/netsim":      "netsim",
	"container/heap":                   "container_heap",
	"shadowmeter/internal/wire":        "wire",
	"shadowmeter/internal/dnswire":     "dnswire",
	"shadowmeter/internal/httpwire":    "httpwire",
	"shadowmeter/internal/tlswire":     "tlswire",
	"shadowmeter/internal/observer":    "observer",
	"shadowmeter/internal/resolversim": "resolversim",
	"shadowmeter/internal/honeypot":    "honeypot",
	"shadowmeter/internal/correlate":   "correlate",
	"shadowmeter/internal/traceroute":  "traceroute",
}

// gcFrames mark a sample as garbage-collector work wherever they sit
// on its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
	"runtime.sweepone", "runtime.deductSweepCredit",
}

// shares returns each cpu_share.* value: self time over all sampled time.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64)
	for _, name := range shareOf {
		out["cpu_share."+name] = ratio(float64(p.self[name]), float64(p.total))
	}
	out["cpu_share.runtime_gc"] = ratio(float64(p.self["runtime_gc"]), float64(p.total))
	return out
}

// fold decodes one gzipped pprof profile and adds its samples.
func (p *cpuProfile) fold(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(data)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		if len(s.values) < 2 || len(s.locs) == 0 {
			continue
		}
		ns := s.values[1]
		p.total += ns
		names := make([]string, 0, len(s.locs))
		for _, id := range s.locs {
			names = append(names, prof.locFuncs[id]...)
		}
		if isGC(names) {
			p.self["runtime_gc"] += ns
			continue
		}
		if len(names) > 0 {
			if share, ok := shareOf[packageOf(names[0])]; ok {
				p.self[share] += ns
			}
		}
	}
	return nil
}

func isGC(stack []string) bool {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return true
			}
		}
	}
	return false
}

// packageOf extracts the import path from a symbol such as
// "shadowmeter/internal/netsim.(*Network).dispatch".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileData is the part of a pprof profile the shares need.
type profileData struct {
	samples []profSample
	// locFuncs lists each location's function names, innermost first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto): samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(data []byte) (*profileData, error) {
	var (
		samples   []profSample
		locLines  = make(map[uint64][]uint64) // location → function IDs
		funcNames = make(map[uint64]int64)    // function → string index
		strs      []string
	)
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prof := &profileData{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, funcs := range locLines {
		for _, f := range funcs {
			if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
				prof.locFuncs[id] = append(prof.locFuncs[id], strs[i])
			}
		}
	}
	return prof, nil
}

// appendPacked appends a repeated integer field that arrived either as
// one varint (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, handing each varint field's value
// or each length-delimited field's bytes to fn.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := varint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
