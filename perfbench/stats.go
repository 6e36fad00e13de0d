package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func p90(xs []float64) float64 { return quantile(xs, 0.9) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, summed over its
// threads. Time the hypervisor steals from the machine is not in it, so
// figures taken on it do not move with the share other tenants take, as
// wall-clock figures do.
func cpuTime() time.Duration { return clock(2) } // CLOCK_PROCESS_CPUTIME_ID

// stopwatch measures process CPU time from the moment it starts.
type stopwatch time.Duration

func startWatch() stopwatch { return stopwatch(cpuTime()) }

// lap returns the CPU milliseconds since the watch started.
func (s stopwatch) lap() float64 { return ms(cpuTime() - time.Duration(s)) }

// opTimes are the CPU milliseconds of a pass's ops, in order, the
// calibrate() time taken after each, and the MB allocated and GC cycles
// per op.
type opTimes struct {
	cpu, cal     []float64
	allocMB, gcs float64
	// peakRSS is the process's peak RSS when the timed ops ended.
	peakRSS float64
}

// add records the op sw timed, then calibrates.
func (t *opTimes) add(sw stopwatch) {
	t.cpu = append(t.cpu, sw.lap())
	t.cal = append(t.cal, calibrate())
}

// setOpFigures fills the end-to-end figures of a workload of sequential
// ops. Each is the median over blocks of n ops of that block's figure,
// scaled by refScale of the block's own calibrations. A trailing
// partial block is dropped unless it is the only one. items is the work
// one op completes.
func setOpFigures(out *outcome, t opTimes, n int, items float64) {
	var rates, p50s, p90s []float64
	for i := 0; i == 0 || i+n <= len(t.cpu); i += n {
		cpu, cal := t.cpu[i:min(i+n, len(t.cpu))], t.cal[i:min(i+n, len(t.cal))]
		f := refScale(cal)
		rates = append(rates, items*1000/(mean(cpu)*f))
		p50s = append(p50s, median(cpu)*f)
		p90s = append(p90s, p90(cpu)*f)
	}
	out.metrics["throughput_per_s"] = median(rates)
	out.metrics["op_p50_ms"] = median(p50s)
	out.metrics["op_p90_ms"] = median(p90s)
	out.metrics["peak_rss_mib"] = t.peakRSS
	out.record["ops"] = len(t.cpu)
	out.record["raw_op_p50_ms"] = median(t.cpu)
	out.record["calibrate_ms"] = median(t.cal)
}

// calibRefMs is the thread CPU time of one calibrate() on the reference
// host, the 2-vCPU virtual machine the benchmark was tuned on.
const calibRefMs = 4.7

// refScale is the factor that scales times measured beside the
// calibrations cal to the reference host: calibRefMs over their median.
// On a shared machine the speed other tenants leave a process drifts by a
// quarter or more over minutes, and calibrate() drifts with it: across ten
// runs of each workload the unscaled op medians spread by 0.07 to 0.15 of
// their median, the scaled ones by 0.01 to 0.03. calibrate() runs only the
// benchmark's own code, so the factor does not depend on the program, and
// two programs measured on one host still compare exactly.
func refScale(cal []float64) float64 { return calibRefMs / median(cal) }

// calibCSV is calibrate's fixed input: 20000 rows of five fields (about
// 0.4 MB), the same in every run whatever the seed.
var calibCSV = func() []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&b, "%d,%d,c%d,s%d,%d\n", rng.Intn(3), rng.Intn(400), rng.Intn(800), rng.Intn(20000), i)
	}
	return b.Bytes()
}()

// calibrate's map and key slice, kept across calls so that it allocates
// nothing.
var (
	calibGroups = make(map[uint64]int, 1<<15)
	calibKeys   = make([]uint64, 0, 1<<15)
)

// calibrate runs a fixed task of the benchmark's own, of the kind the
// program's ops do (split CSV rows into fields, hash two fields of each
// row into a map of groups, sort the group keys), and returns the CPU
// milliseconds of the thread that ran it. It allocates nothing, so no
// garbage-collection work lands in it, and the collector's background
// work on other threads is not in its time.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	clear(calibGroups)
	keys := calibKeys[:0]
	field, h := 0, uint64(offset)
	for i, c := range calibCSV {
		switch c {
		case ',':
			if field == 2 {
				if _, ok := calibGroups[h]; !ok {
					calibGroups[h] = i
					keys = append(keys, h)
				}
			}
			field++
			h = (h ^ ',') * prime
		case '\n':
			field, h = 0, offset
		default:
			if field == 1 || field == 2 {
				h = (h ^ uint64(c)) * prime
			}
		}
	}
	slices.Sort(keys)
	calibKeys = keys
	return ms(threadCPU() - start)
}

// threadCPU is the CPU time the calling thread has used so far.
func threadCPU() time.Duration { return clock(3) } // CLOCK_THREAD_CPUTIME_ID

// clock reads a clock_gettime clock. getrusage is not used: its
// per-thread figures moved by half their size between repeats of a 4 ms
// task, where this clock's moved by a tenth.
func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMiB is the process's peak resident set size so far, in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnapshot is the allocation and GC counters at one instant.
type memSnapshot struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// perOp returns MB allocated and GC cycles per op since s.
func (s memSnapshot) perOp(ops int) (mb, gcs float64) {
	if ops == 0 {
		return 0, 0
	}
	now := readMem()
	return float64(now.alloc-s.alloc) / 1e6 / float64(ops), float64(now.gcs-s.gcs) / float64(ops)
}

// cycles runs whole cycles of n ops, op(i) for i in [0, n), until at least
// d has elapsed (and at least one cycle ran). It returns the ops run.
func cycles(d time.Duration, n int, op func(i int)) int {
	start := time.Now()
	ops := 0
	for ops == 0 || time.Since(start) < d {
		for i := 0; i < n; i++ {
			op(i)
		}
		ops += n
	}
	return ops
}

// setupMedian runs set-up k times, setup(i) for i in [0, k), calibrating
// after each, and returns the median CPU seconds it took, scaled by
// refScale of the calibrations. teardown, when not nil, undoes a set-up
// before the next one, untimed; the last set-up's state is kept.
func setupMedian(k int, setup func(i int) error, teardown func() error) (float64, error) {
	var cpu, cal []float64
	for i := 0; i < k; i++ {
		sw := startWatch()
		if err := setup(i); err != nil {
			return 0, err
		}
		cpu = append(cpu, sw.lap()/1000)
		cal = append(cal, calibrate())
		if teardown != nil && i < k-1 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return median(cpu) * refScale(cal), nil
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
