package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch is the process's time origin for times kept in bulk, which are
// stored as durations since it so that they hold no pointers.
var epoch = time.Now()

// usage is a resource snapshot: wall clock, the process's user+sys CPU
// from getrusage, the runtime's cumulative heap-allocation count, and the
// host's CPU time counters, of which steal is the time the hypervisor ran
// something else while this machine's virtual CPUs wanted to run.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	allocs     uint64
	hostSteal  uint64
	hostTotal  uint64
	hostTicked bool // whether the host counters could be read
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	u := usage{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), allocs: s[0].Value.Uint64()}
	u.hostSteal, u.hostTotal, u.hostTicked = hostTicks()
	return u
}

// hostTicks reads the summed CPU time counters of all CPUs from /proc/stat:
// the steal counter and the total (user, nice, system, idle, iowait, irq,
// softirq, steal). ok is false where they cannot be read.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// div is a/b, or 0 when nothing was counted in b (a run in which every
// operation failed), so the result stays printable.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// The measured run is cut into quarter-second slices, and the rate and
// latency metrics come from the calmer ones: the slices in which the host
// stole no more CPU time than in the median slice. On a shared VM steal
// comes in episodes of tens of seconds at 20-40%, and it slows every
// wall-clock metric by as much or more whatever the program does; even
// inside an episode it drops for a fraction of a second at a time, and the
// calmer half catches those. Where steal is the same in every slice (bare
// metal, a calm VM) or the host counters cannot be read, every slice is
// kept.
const slicePeriod = 250 * time.Millisecond

// completion is one finished operation, booked into the slice it ends in.
type completion struct {
	at     time.Time
	latMs  float64
	bits   int64
	frames float64
}

// meter samples resource use at every slice boundary of a measured run.
type meter struct {
	start usage
	ticks []usage
	stop  chan struct{}
	done  chan struct{}
}

func startMeter() *meter {
	m := &meter{start: snapshot(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(slicePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.ticks = append(m.ticks, snapshot())
			}
		}
	}()
	return m
}

// finish stops the sampler and books the run's resource use into tot.
func (m *meter) finish(tot *totals) {
	close(m.stop)
	<-m.done
	end := snapshot()
	// A last slice shorter than half a period is merged into the one before.
	if n := len(m.ticks); n > 0 && end.wall.Sub(m.ticks[n-1].wall) < slicePeriod/2 {
		m.ticks = m.ticks[:n-1]
	}
	tot.bounds = append(append([]usage{m.start}, m.ticks...), end)
	tot.wall = end.wall.Sub(m.start.wall)
	tot.cpu = end.cpu - m.start.cpu
	tot.allocs = end.allocs - m.start.allocs
}

// totals is the untraced, end-to-end ledger of one measured run.
type totals struct {
	attempted int // operations started (messages)
	failed    int // undelivered, unacked or wrong-payload operations
	delivered int // messages delivered intact
	bits      int64
	symbols   int64   // coded symbols sent, for delivered and failed messages
	frames    float64 // data frames (48-symbol frame equivalents on codec)
	wall      time.Duration
	cpu       time.Duration
	allocs    uint64
	clients   int          // closed-loop clients (load goroutines)
	done      []completion // per operation: message, or burst on wire
	bounds    []usage      // resource snapshots at the slice boundaries
	setupS    float64
}

// steal is the host's steal share over slice j, or over the whole run for
// j < 0.
func (t *totals) steal(j int) float64 {
	a, b := t.bounds[0], t.bounds[len(t.bounds)-1]
	if j >= 0 {
		a, b = t.bounds[j], t.bounds[j+1]
	}
	if !a.hostTicked || !b.hostTicked || b.hostTotal == a.hostTotal {
		return 0
	}
	return float64(b.hostSteal-a.hostSteal) / float64(b.hostTotal-a.hostTotal)
}

// calm returns which slices the metrics use, those whose steal is at most
// the median slice's, and a note saying why.
func (t *totals) calm() ([]bool, string) {
	n := len(t.bounds) - 1
	keep := make([]bool, n)
	for _, b := range t.bounds {
		if !b.hostTicked {
			for j := range keep {
				keep[j] = true
			}
			return keep, "host steal counters unreadable, every slice kept"
		}
	}
	steals := make([]float64, n)
	for j := range steals {
		steals[j] = t.steal(j)
	}
	limit := median(steals)
	kept := 0
	for j, st := range steals {
		if st <= limit {
			keep[j] = true
			kept++
		}
	}
	if kept == n {
		return keep, "host steal the same in every slice, every slice kept"
	}
	return keep, fmt.Sprintf("slices with more host steal than the median slice's %.1f%% dropped", 100*limit)
}

// slice is the index of the slice an operation finished in.
func (t *totals) slice(at time.Time) int {
	n := len(t.bounds) - 1
	j := sort.Search(n, func(j int) bool { return t.bounds[j+1].wall.After(at) })
	if j == n {
		j = n - 1 // finished while the last snapshot was taken
	}
	return j
}

// keptLatencies returns the sorted latencies of the operations that
// finished in kept slices.
func (t *totals) keptLatencies(keep []bool) []float64 {
	var lat []float64
	for _, c := range t.done {
		if keep[t.slice(c.at)] {
			lat = append(lat, c.latMs)
		}
	}
	sort.Float64s(lat)
	return lat
}

// endToEnd computes every end-to-end metric from the ledger, over the
// operations that finished in the kept slices. Each client runs a closed
// loop, so by Little's law the system's throughput is the number of clients
// over the mean operation time: goodput and frame rate are the kept
// operations' bits and frames over their summed latency, times the
// clients. (Dividing by the kept slices' length instead would count
// operations that straddle a slice boundary in one slice and not the
// other.) CPU per kbit is the kept slices' CPU over the kbit delivered in
// them; latencies are percentiles of the kept operations.
func (t *totals) endToEnd() map[string]float64 {
	keep, _ := t.calm()
	var cpu time.Duration
	for j, k := range keep {
		if k {
			cpu += t.bounds[j+1].cpu - t.bounds[j].cpu
		}
	}
	var bits int64
	var frames, busyMs float64
	for _, c := range t.done {
		if keep[t.slice(c.at)] {
			bits += c.bits
			frames += c.frames
			busyMs += c.latMs
		}
	}
	perSec := div(float64(t.clients)*1000, busyMs)
	kbits := float64(bits) / 1000
	lat := t.keptLatencies(keep)
	return map[string]float64{
		"goodput_kbps":      kbits * perSec,
		"frames_per_s":      frames * perSec,
		"latency_p50_ms":    quantile(lat, 0.50),
		"latency_p90_ms":    quantile(lat, 0.90),
		"latency_p99_ms":    quantile(lat, 0.99),
		"rate_bits_per_sym": div(float64(t.bits), float64(t.symbols)),
		"cpu_ms_per_kbit":   div(cpu.Seconds()*1000, kbits),
		"allocs_per_msg":    div(float64(t.allocs), float64(t.delivered)),
		"allocs_per_frame":  div(float64(t.allocs), t.frames),
		"setup_s":           t.setupS,
	}
}

// tailNote describes the slices and latency samples behind the metrics:
// host steal over the run and over the kept slices, the latency deciles,
// and how many samples lie beyond p90 and p99 (a percentile wants at least
// ten beyond it).
func (t *totals) tailNote() string {
	keep, why := t.calm()
	var kept, keptSteal float64
	for j, k := range keep {
		if k {
			kept++
			keptSteal += t.steal(j)
		}
	}
	lat := t.keptLatencies(keep)
	n := len(lat)
	beyond := func(q float64) int { return n - int(math.Ceil(q*float64(n))) }
	var deciles []string
	for q := 0.1; q < 1.05; q += 0.1 {
		deciles = append(deciles, fmt.Sprintf("%.3g", quantile(lat, q)))
	}
	note := fmt.Sprintf("host steal %.1f%% over the run, %.1f%% over the %.0f of %d slices kept (%s); "+
		"%d latency samples kept, deciles %s ms; beyond p90: %d, beyond p99: %d",
		100*t.steal(-1), 100*keptSteal/kept, kept, len(keep), why, n, strings.Join(deciles, " "), beyond(0.90), beyond(0.99))
	if beyond(0.99) < 10 {
		note += " (p99 has fewer than 10 samples beyond it; read p90 as the supported tail)"
	}
	return note
}
