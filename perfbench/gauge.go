package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// gaugeEvery is the wall time per sample of the host gauge.
	gaugeEvery = 100 * time.Millisecond
	// gaugeBurst caps the samples taken at once after a long loop step.
	gaugeBurst = 10
)

// gaugeKernel is one fixed piece of work the gauge times, with its
// thread CPU time on the reference host.
type gaugeKernel struct {
	name  string
	refMS float64
	run   func(g *hostGauge)
}

// gaugeKernels cover the three kinds of cost the program's CPU time is
// made of, each of which the host changes on its own: memory bandwidth,
// Go code on small data (map lookups, sorting, number formatting,
// hashing) and system calls.
var gaugeKernels = []gaugeKernel{
	{"copy", 1.0, func(g *hostGauge) { copy(g.dst, g.src) }},
	{"mix", 1.0, (*hostGauge).mix},
	{"sys", 0.12, (*hostGauge).sys},
}

// hostGauge measures how fast the host runs right now. Between loop
// steps it runs fixed kernels on the benchmark's own thread and takes
// the thread's CPU time of each. The kernels are the benchmark's code,
// not the program's, so their times change with the host — other
// tenants on the core, the caches, the memory bus, the hypervisor — and
// not with the program. The program's CPU costs move with them, so the
// end-to-end CPU metrics are scaled by them to a reference host.
// Nothing in the kernels allocates on the Go heap.
type hostGauge struct {
	last    time.Time
	cpu     time.Duration // spent in samples, taken out of the run's CPU time
	samples [][]float64   // thread CPU ms per sample, per kernel

	mapped   []byte // src and dst, outside the Go heap
	src, dst []byte
	keys     []string
	index    map[string]int
	ints     []int
	scratch  []int
	digits   []byte
	fd       int
	page     []byte
	sum      int
}

func newHostGauge(dir string) (*hostGauge, error) {
	const copyBytes = 8 << 20
	mapped, err := syscall.Mmap(-1, 0, 2*copyBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := range mapped {
		mapped[i] = byte(i)
	}
	path := filepath.Join(dir, "gauge.dat")
	if err := os.WriteFile(path, make([]byte, 64<<10), 0o644); err != nil {
		syscall.Munmap(mapped)
		return nil, err
	}
	fd, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		syscall.Munmap(mapped)
		return nil, err
	}
	g := &hostGauge{
		last:    time.Now(),
		samples: make([][]float64, len(gaugeKernels)),
		mapped:  mapped, src: mapped[:copyBytes], dst: mapped[copyBytes:],
		index: make(map[string]int), ints: make([]int, 4096), scratch: make([]int, 4096),
		digits: make([]byte, 0, 32), fd: fd, page: make([]byte, 4096),
	}
	for i := 0; i < 4096; i++ {
		k := "m" + strconv.Itoa(i/16) + "/vm" + strconv.Itoa(i%16) + "/vnic"
		g.keys = append(g.keys, k)
		g.index[k] = i
		g.ints[i] = i * 7919 % 4096
	}
	return g, nil
}

// close releases the gauge's memory and file, so that heap_live_mb
// measures the program alone.
func (g *hostGauge) close() {
	if g.mapped == nil {
		return
	}
	syscall.Munmap(g.mapped)
	syscall.Close(g.fd)
	*g = hostGauge{samples: g.samples, cpu: g.cpu}
}

// maybe samples the gauge once for every gaugeEvery that has passed
// since it last did, so a workload with long loop steps (fleet_fault,
// about 0.8 s) gets as many samples per run as one with short steps.
func (g *hostGauge) maybe() {
	n := min(int(time.Since(g.last)/gaugeEvery), gaugeBurst)
	if n == 0 {
		return
	}
	g.last = time.Now()
	g.sample(n)
}

// sample runs every kernel n times.
func (g *hostGauge) sample(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for ; n > 0; n-- {
		for i, k := range gaugeKernels {
			start := threadCPU()
			k.run(g)
			d := threadCPU() - start
			g.cpu += d
			g.samples[i] = append(g.samples[i], ms(d))
		}
	}
}

func (g *hostGauge) mix() {
	s := g.sum
	for r := 0; r < 2; r++ {
		for i := range g.keys {
			s += g.index[g.keys[(i*2654435761+r)%len(g.keys)]]
		}
		copy(g.scratch, g.ints)
		sort.Ints(g.scratch)
		for i := 0; i < 512; i++ {
			g.digits = strconv.AppendInt(g.digits[:0], int64(i*s), 10)
			v := 0
			for _, c := range g.digits {
				if c >= '0' && c <= '9' {
					v = v*10 + int(c-'0')
				}
			}
			s += v & 1
		}
		h := uint64(14695981039346656037)
		for _, c := range g.src[:64<<10] {
			h = (h ^ uint64(c)) * 1099511628211
		}
		s += int(h & 1)
	}
	g.sum = s
}

func (g *hostGauge) sys() {
	for i := 0; i < 256; i++ {
		syscall.Pread(g.fd, g.page, int64(i%16)*4096)
	}
}

// restart drops the samples taken so far.
func (g *hostGauge) restart() {
	g.last = time.Now()
	g.samples = make([][]float64, len(gaugeKernels))
}

// slowdown is how many times slower than the reference host the host
// ran: the geometric mean over the kernels of the median sample over
// the reference. CPU times are divided by it and rates multiplied.
func (g *hostGauge) slowdown() float64 {
	logs := 0.0
	for i, k := range gaugeKernels {
		logs += math.Log(median(g.samples[i]) / k.refMS)
	}
	return math.Exp(logs / float64(len(gaugeKernels)))
}

// medians lists each kernel's median sample, for the run's note line.
func (g *hostGauge) medians() []float64 {
	var m []float64
	for i := range gaugeKernels {
		m = append(m, median(g.samples[i]))
	}
	return m
}
