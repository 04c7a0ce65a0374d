package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassifyHandBuiltStacks(t *testing.T) {
	cases := []struct {
		stack     []string // leaf first
		bucket    string
		subBucket string
	}{
		{[]string{"vsched/internal/sim.(*Engine).fire", "vsched/internal/sim.(*Engine).Run"}, "sim", ""},
		{[]string{"vsched/internal/sim/heapengine.(*Engine).Run"}, "sim", ""},
		{[]string{"math.exp2", "math.Exp2", "vsched/internal/guest.(*Task).decayLoad", "vsched/internal/sim.(*Engine).Run"}, "guest", "guest.pelt"},
		{[]string{"vsched/internal/guest.(*Guest).scanIdle", "vsched/internal/guest.(*Guest).selectCPUDefault", "vsched/internal/sim.(*Engine).Run"}, "guest", "guest.select"},
		{[]string{"vsched/internal/guest.(*Guest).findPullable.func1", "vsched/internal/guest.(*Guest).findPullable"}, "guest", "guest.select"},
		{[]string{"vsched/internal/guest.(*VCPU).onTick"}, "guest", ""},
		// A hook called from the select path is the hook module's self time.
		{[]string{"vsched/internal/core.(*BVS).pick", "vsched/internal/guest.(*Guest).selectCPU"}, "core", ""},
		{[]string{"vsched/internal/host.(*Host).refreshSpeed", "vsched/internal/host.(*Host).refreshSocketSpeeds"}, "host", "host.speed"},
		{[]string{"vsched/internal/host.(*Entity).Wake"}, "host", ""},
		{[]string{"sort.insertionSort_func", "sort.stable_func", "sort.SliceStable", "vsched/internal/fleet.(*macroSim).advance"}, "fleet", "fleet.sort"},
		{[]string{"vsched/internal/fleet.(*macroSim).advance.func3", "sort.insertionSort_func", "sort.SliceStable", "vsched/internal/fleet.(*macroSim).advance"}, "fleet", "fleet.sort"},
		{[]string{"vsched/internal/fleet.(*HostIndex).Update", "vsched/internal/fleet.(*macroSim).reindexHost"}, "fleet", "fleet.reindex"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "vsched/internal/host.(*Entity).Wake"}, "runtime.alloc", ""},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "vsched/internal/guest.(*VCPU).onTick"}, "runtime.gc", ""},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc", ""},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mcall"}, "other", ""},
		{[]string{"vsched/internal/profiling.Start"}, "other", ""},
		{nil, "other", ""},
		// An allocation above the innermost repo frame is not that frame's
		// allocation: the leaf-side frames decide.
		{[]string{"vsched/internal/metrics.(*Counter).Add", "runtime.mallocgc", "vsched/internal/guest.f"}, "metrics", ""},
	}
	f := newFolded()
	for i, c := range cases {
		b, s := classify(c.stack)
		if b != c.bucket || s != c.subBucket {
			t.Errorf("case %d %v: got (%q, %q), want (%q, %q)", i, c.stack, b, s, c.bucket, c.subBucket)
		}
		f.add(c.stack, int64(i+1)*1000)
	}
	checkSums(t, f)
}

// checkSums asserts the folder's invariants: buckets sum to the sampled
// total and every sub-bucket is part of its module's bucket.
func checkSums(t *testing.T, f *folded) {
	t.Helper()
	var sum int64
	for b, ns := range f.buckets {
		if b != bucketGC && b != bucketAlloc && b != bucketOther && !isLayer(b) {
			t.Errorf("unexpected bucket %q", b)
		}
		sum += ns
	}
	if sum != f.total {
		t.Errorf("buckets sum to %d, total sampled %d", sum, f.total)
	}
	for _, sb := range subBuckets {
		if f.subs[sb.name] > f.buckets[sb.module] {
			t.Errorf("%s = %d exceeds %s = %d", sb.name, f.subs[sb.name], sb.module, f.buckets[sb.module])
		}
	}
}

var sink float64

//go:noinline
func burnCPU(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.0000001
		}
	}
}

// TestFoldRealProfile decodes a profile written by runtime/pprof.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()

	f := newFolded()
	if err := foldProfile(buf.Bytes(), f); err != nil {
		t.Fatal(err)
	}
	if f.total <= 0 {
		t.Fatal("no CPU sampled")
	}
	checkSums(t, f)

	raw, err := gunzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fn := range p.functions {
		if strings.HasSuffix(p.str(fn), ".burnCPU") {
			found = true
		}
	}
	if !found {
		t.Error("burnCPU frame not decoded")
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if err := foldProfile([]byte("not a profile"), newFolded()); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated message accepted")
	}
}
