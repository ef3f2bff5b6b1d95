package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/imcf/imcf/internal/metrics"
)

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the slice of runtime.MemStats the benchmark reads.
type memSnap struct {
	totalAlloc uint64
	mallocs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// liveHeap forces a collection and returns the bytes of heap in use.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// counterSet holds readings of the program's own unlabeled counters,
// so that a layer's work can be read as the difference across a phase.
type counterSet map[string]float64

// readCounters reads the named counters from the process-wide metrics
// registry's exposition, the text an operator scrapes from /metrics.
func readCounters(names ...string) counterSet {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	metrics.Default().WritePrometheus(w)
	w.Flush() //nolint:errcheck // writes to a bytes.Buffer
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(counterSet, len(names))
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// since returns the growth of every counter since base.
func (c counterSet) since(base counterSet) counterSet {
	out := make(counterSet, len(c))
	for n, v := range c {
		out[n] = v - base[n]
	}
	return out
}

// add accumulates d into c.
func (c counterSet) add(d counterSet) {
	for n, v := range d {
		c[n] += v
	}
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
