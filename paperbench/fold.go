package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers in this simulator call each other through engine callbacks at
// sub-microsecond grain, so they cannot be timed by wrapping calls. Instead
// the profiled pass takes runtime/pprof CPU samples and this file folds each
// sample to one layer: the innermost vsched/internal/<module> frame, with
// garbage-collector work and allocation split out into runtime buckets.

const modulePrefix = "vsched/internal/"

// layerModules are the modules reported as <module>.cpu_s. A sample whose
// innermost repo frame is in another module (profiling, simbench: never
// reached by a workload) counts as other.
var layerModules = []string{
	"sim", "guest", "host", "core", "workload", "cachemodel",
	"fleet", "cloudgen", "faults",
	"metrics", "telemetry", "vtrace", "latprof", "progress", "obshttp",
	"experiments", "harness",
}

const (
	bucketGC    = "runtime.gc"
	bucketAlloc = "runtime.alloc"
	bucketOther = "other"
)

// subBucket names a hot path inside one module, matched by function name on
// any frame of a sample already folded to that module. Sub-buckets are
// subsets of their module's bucket and do not enter the sum invariant.
type subBucket struct {
	name   string
	module string
	match  func(frame string) bool
}

var subBuckets = []subBucket{
	{"guest.select", "guest", func(f string) bool {
		fn := repoFunc(f, "guest")
		return strings.HasPrefix(fn, "selectCPU") || fn == "scanIdle" || fn == "findPullable"
	}},
	{"guest.pelt", "guest", func(f string) bool {
		return strings.HasPrefix(f, "math.Exp2") || strings.HasPrefix(f, "math.exp2")
	}},
	{"host.speed", "host", func(f string) bool {
		fn := repoFunc(f, "host")
		return fn == "refreshSocketSpeeds" || fn == "refreshSpeed"
	}},
	{"fleet.sort", "fleet", func(f string) bool {
		return strings.HasPrefix(f, "sort.") || strings.HasPrefix(f, "slices.")
	}},
	{"fleet.reindex", "fleet", func(f string) bool {
		return strings.HasPrefix(repoFunc(f, "fleet"), "reindex")
	}},
}

// repoFunc returns the method or function name of a frame in the given
// module ("vsched/internal/guest.(*VCPU).selectCPU" -> "selectCPU"), skipping
// closure suffixes (".func1"), or "" for a frame outside the module.
func repoFunc(frame, module string) string {
	if moduleOf(frame) != module {
		return ""
	}
	parts := strings.Split(frame[len(modulePrefix)+len(module):], ".")
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		if p != "" && !strings.HasPrefix(p, "func") && !isDigits(p) {
			return p
		}
	}
	return ""
}

func isDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}

// moduleOf returns <module> for a vsched/internal/<module>[/...] frame, "" otherwise.
func moduleOf(frame string) string {
	if !strings.HasPrefix(frame, modulePrefix) {
		return ""
	}
	rest := frame[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isGCFrame matches the garbage collector's own work: background mark
// workers, mark assists charged to allocating goroutines, and the sweeper
// and scavenger.
func isGCFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" ||
		f == "runtime.bgscavenge" || f == "runtime.markroot" || f == "runtime.scanobject"
}

// classify folds one stack, leaf frame first with inlined frames expanded
// innermost first, to its bucket and (possibly empty) sub-bucket. Frames
// between the leaf and the innermost repo frame decide between GC work,
// allocation, and the module's own self time.
func classify(stack []string) (bucket, sub string) {
	inner := -1
	for i, f := range stack {
		if m := moduleOf(f); m != "" {
			inner = i
			bucket = m
			break
		}
	}
	below := stack
	if inner >= 0 {
		below = stack[:inner]
	}
	for _, f := range below {
		if isGCFrame(f) {
			return bucketGC, ""
		}
	}
	for _, f := range below {
		if f == "runtime.mallocgc" {
			return bucketAlloc, ""
		}
	}
	if inner < 0 || !isLayer(bucket) {
		return bucketOther, ""
	}
	for _, sb := range subBuckets {
		if sb.module != bucket {
			continue
		}
		for _, f := range stack {
			if sb.match(f) {
				return bucket, sb.name
			}
		}
	}
	return bucket, ""
}

func isLayer(m string) bool {
	for _, l := range layerModules {
		if l == m {
			return true
		}
	}
	return false
}

// folded is CPU time per bucket and sub-bucket, in nanoseconds.
type folded struct {
	total   int64
	buckets map[string]int64
	subs    map[string]int64
}

func newFolded() *folded {
	return &folded{buckets: map[string]int64{}, subs: map[string]int64{}}
}

func (f *folded) add(stack []string, ns int64) {
	b, s := classify(stack)
	f.total += ns
	f.buckets[b] += ns
	if s != "" {
		f.subs[s] += ns
	}
}

// foldProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof and folds every sample's CPU nanoseconds into f.
func foldProfile(gz []byte, f *folded) error {
	raw, err := gunzip(gz)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	vi := p.cpuIndex()
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		f.add(stack, s.values[vi])
	}
	return nil
}

func gunzip(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// --- minimal protobuf decoding of the pprof profile.proto subset ---

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []pprofSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// cpuIndex is the sample value holding CPU nanoseconds ("cpu"); Go's CPU
// profiles list it after the sample count.
func (p *pprofProfile) cpuIndex() int {
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" {
			return i
		}
	}
	return len(p.sampleTypes) - 1
}

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s pprofSample
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walk(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// walk calls fn for every field of one protobuf message: varint fields get
// their value, length-delimited fields their bytes (data == nil otherwise).
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated handles a repeated varint field in either encoding: one value
// per field (data == nil) or packed into one length-delimited field.
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
