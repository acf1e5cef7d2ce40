// Command perfbench is the end-to-end benchmark of the spinal stack. It
// drives one workload (codec, link or wire) through the program's public
// APIs for a fixed time, checks every output, and prints the end-to-end
// metrics; with -trace 1 it also reruns the same inputs through timing
// wrappers and prints the per-layer metrics, each layer's self time and the
// tracing overhead. The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload link --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median of their times.
const setupReps = 9

type workload struct {
	name string
	why  string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"codec", "Code.TransmitOver at the facade defaults over AWGN, 24- and 64-bit messages at 5/15/25 dB: what the paper's experiments and facade users run; core decodes, link is bypassed", runCodec},
	{"link", "two link.Sender flows of 32-byte payloads into one link.Receiver over loopback UDP: ack pacing, scheduling, per-frame attempts, pooled decoders and acks run together", runLink},
	{"wire", "bursts of the smallest K=4 frames that decode on arrival, plus duplicates, into a link.Receiver over UDP: per-frame ingest, parse, demux and ack repeat dominate; decoder idle", runWire},
}

// report is what one workload run produced.
type report struct {
	e2e      totals             // the untraced, timed run
	traced   *totals            // the traced rerun of the same inputs (-trace 1)
	tracer   *tracer            // its spans
	layers   map[string]float64 // per-layer metrics (-trace 1)
	failures []string           // failed correctness checks
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timedSetup builds a workload setupReps times, tearing down every
// instance but the last, and returns the last with the median build time in
// seconds. The warm-up that follows is not timed: on link its time hangs on
// whether an ack beats the sender's next frame, so the median over a run
// fell on one of two modes 60% apart.
func timedSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown(inst)
		}
		t0 := time.Now()
		var err error
		if inst, err = build(); err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

func ratio(num, den int64) float64 { return div(float64(num), float64(den)) }

type metricDef struct {
	name, unit string
	// moves names the end-to-end metric and workload the layer metric
	// should move, and the workload on which it should stay flat.
	moves, bypass string
}

var endToEndDefs = []metricDef{
	{name: "goodput_kbps", unit: "kbit/s"},
	{name: "frames_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "rate_bits_per_sym", unit: "bit/sym"},
	{name: "cpu_ms_per_kbit", unit: "ms/kbit"},
	{name: "allocs_per_msg", unit: "allocs/msg"},
	{name: "allocs_per_frame", unit: "allocs/frame"},
	{name: "setup_s", unit: "s"},
}

var layerDefs = []metricDef{
	{"core.session.attempts_per_msg", "count", "goodput_kbps, latency_p50_ms on codec", "wire"},
	{"core.session.attempt_yield", "ratio", "goodput_kbps, latency_p50_ms on codec", "wire"},
	{"core.encode.ns_per_sym", "ns", "cpu_ms_per_kbit on codec", "wire"},
	{"core.observe.ns_per_sym", "ns", "cpu_ms_per_kbit on codec", "wire"},
	{"core.decode.ms_per_attempt", "ms", "latency_p50_ms, goodput_kbps on codec", "wire"},
	{"core.decode.nodes_per_attempt", "count", "latency_p50_ms, goodput_kbps on codec", "wire"},
	{"core.decode.refreshed_per_attempt", "count", "latency_p50_ms, goodput_kbps on codec", "wire"},
	{"core.decode.ns_per_node", "ns", "cpu_ms_per_kbit on codec", "wire"},
	{"core.decode.self_share", "ratio", "cpu_ms_per_kbit on codec", "wire"},
	{"core.pool.hit_ratio", "ratio", "allocs_per_msg on codec", "wire"},
	{"impair.ns_per_sym", "ns", "cpu_ms_per_kbit on codec and link", "wire"},
	{"link.sender.frames_per_msg", "count", "rate_bits_per_sym on link", "codec"},
	{"link.sender.overshoot_syms_per_msg", "count", "rate_bits_per_sym on link", "codec"},
	{"link.sender.ack_ignored_per_msg", "count", "rate_bits_per_sym on link", "codec"},
	{"link.ack.lag_ms", "ms", "latency_p50_ms on link", "codec"},
	{"link.frame.marshal_ns_per_frame", "ns", "frames_per_s on wire", "codec"},
	{"link.transport.send_ns_per_frame", "ns", "frames_per_s on wire", "codec"},
	{"link.transport.recv_ns_per_call", "ns", "frames_per_s on wire", "codec"},
	{"link.transport.frames_per_recv_call", "count", "frames_per_s on wire", "codec"},
	{"link.transport.recv_idle_share", "ratio", "frames_per_s on wire", "codec"},
	{"link.receiver.self_ns_per_frame", "ns", "frames_per_s, latency_p99_ms on wire", "codec"},
	{"link.receiver.attempts_per_msg", "count", "cpu_ms_per_kbit on link", "codec"},
	{"link.receiver.nodes_per_msg", "count", "cpu_ms_per_kbit on link", "codec"},
	{"link.receiver.syms_to_decode", "count", "rate_bits_per_sym on link", "codec"},
	{"link.receiver.tracked_msgs_max", "count", "latency_p90_ms on link", "codec"},
	{"link.receiver.budget_deferrals", "count", "latency_p90_ms on link (should stay 0)", "codec"},
	{"link.receiver.shed_flows", "count", "latency_p90_ms on link (should stay 0)", "codec"},
	{"link.pool.hit_ratio", "ratio", "allocs_per_msg on link", "codec"},
	{"link.ackarena.miss_ratio", "ratio", "allocs_per_frame on wire", "codec"},
	{"core.session.self_us_per_msg", "us", "latency_p50_ms on codec", "wire"},
	{"core.encode.self_us_per_msg", "us", "cpu_ms_per_kbit on codec", "wire"},
	{"core.observe.self_us_per_msg", "us", "cpu_ms_per_kbit on codec", "wire"},
	{"core.decode.self_us_per_msg", "us", "latency_p50_ms on codec", "wire"},
	{"impair.self_us_per_msg", "us", "cpu_ms_per_kbit on codec and link", "wire"},
	{"link.frame.self_us_per_msg", "us", "frames_per_s on wire", "codec"},
	{"link.transport.self_us_per_msg", "us", "frames_per_s on wire", "codec"},
	{"link.sender.self_us_per_msg", "us", "latency_p50_ms on link", "codec"},
	{"link.receiver.self_us_per_msg", "us", "frames_per_s on wire", "codec"},
	{"trace.overhead_share", "ratio", "none: traced minus untraced goodput, as a share of untraced", "none"},
}

// unmeasured names the per-layer metrics a workload cannot measure from
// outside the program, and why; they read zero on that workload.
var unmeasured = map[string]map[string]string{
	"codec": {
		"core.pool.hit_ratio": "TransmitOver builds a fresh decoder per message; no pool is involved",
		"link.*":              "the codec workload bypasses the link layer",
	},
	"link": {
		"core.*":                          "decode runs inside the receiver's workers, which cannot be timed from outside the program; core.pool.hit_ratio reports the receiver's pool",
		"link.frame.marshal_ns_per_frame": "Sender.Send marshals its frames internally",
	},
	"wire": {
		"core.*": "decode runs inside the receiver's workers, which cannot be timed from outside the program; core.pool.hit_ratio reports the receiver's pool",
		"impair": "the wire workload has no impairment",
	},
}

// zeroLayers returns every per-layer metric set to zero.
func zeroLayers() map[string]float64 {
	m := map[string]float64{}
	for _, d := range layerDefs {
		m[d.name] = 0
	}
	return m
}

// addSelfTimes adds each layer's self time per delivered message.
func addSelfTimes(m map[string]float64, t *tracer, msgs int64) {
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+".self_us_per_msg"] = ratio(t.layerTotals(l).self, msgs) / 1e3
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: codec, link, wire, or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the untraced run measures")
	trace := flag.Int("trace", 0, "1 reruns the inputs traced and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1, -seconds positive")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want codec, link, wire or all)\n", *name)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Printf("perfbench: %s/%s, GOMAXPROCS=%d, seed %d, %gs per run; link-layer traffic crosses the loopback interface, not a radio\n",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), *seed, *seconds)

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range run {
		rep, err := w.run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res := printReport(w, rep, rc.trace)
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(run) > 1 {
				k = w.name + "." + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints a workload's human-readable report and returns its
// result: end-to-end metrics untraced, per-layer metrics traced.
func printReport(w workload, rep *report, traced bool) result {
	res := result{Attempted: rep.e2e.attempted, Failed: rep.e2e.failed, Metrics: map[string]metricValue{}}
	if rep.traced != nil {
		res.Attempted += rep.traced.attempted
		res.Failed += rep.traced.failed
	}
	fmt.Printf("\n== %s: %s\n", w.name, w.why)
	e2e := rep.e2e.endToEnd()
	fmt.Printf("untraced: %d ops attempted, %d failed (fail_frac %.4g), %d messages delivered in %.2fs; %s\n",
		rep.e2e.attempted, rep.e2e.failed, ratio(int64(rep.e2e.failed), int64(rep.e2e.attempted)),
		rep.e2e.delivered, rep.e2e.wall.Seconds(), rep.e2e.tailNote())
	var tracedE2E map[string]float64
	if rep.traced != nil {
		tracedE2E = rep.traced.endToEnd()
	}
	for _, d := range endToEndDefs {
		line := fmt.Sprintf("  %-20s %14.6g %s", d.name, e2e[d.name], d.unit)
		if tracedE2E != nil && d.name != "setup_s" {
			line += fmt.Sprintf("   traced %.6g (traced/untraced %+.1f%%)", tracedE2E[d.name],
				100*(tracedE2E[d.name]/e2e[d.name]-1))
		}
		fmt.Println(line)
		if !traced {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}
	if traced {
		rep.layers["trace.overhead_share"] = 1 - div(tracedE2E["goodput_kbps"], e2e["goodput_kbps"])
		fmt.Printf("per-layer (traced rerun of the same %d operations):\n", rep.traced.attempted)
		for _, d := range layerDefs {
			fmt.Printf("  %-38s %14.6g %-6s -> %s; flat on %s\n", d.name, rep.layers[d.name], d.unit, d.moves, d.bypass)
			res.Metrics[d.name] = metricValue{rep.layers[d.name], d.unit}
		}
		fmt.Println("self time by layer (span time not covered by child spans, summed over goroutines;",
			"idle is time in calls that returned nothing, such as receive timeouts):")
		var all int64
		for l := layer(0); l < numLayers; l++ {
			all += rep.tracer.layerTotals(l).self
		}
		for l := layer(0); l < numLayers; l++ {
			st := rep.tracer.layerTotals(l)
			if st.self > 0 {
				fmt.Printf("  %-16s %10.3f ms  %5.1f%%  (idle %.3f ms)\n", layerNames[l],
					float64(st.self)/1e6, 100*ratio(st.self, all), float64(st.idle)/1e6)
			}
		}
		keys := make([]string, 0, len(unmeasured[w.name]))
		for k := range unmeasured[w.name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  unmeasured on %s: %s (%s)\n", w.name, k, unmeasured[w.name][k])
		}
	}
	res.Failed += len(rep.failures)
	res.Correct = res.Failed == 0
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	if len(rep.failures) > 0 {
		fmt.Printf("checks failed: %s\n", strings.Join(rep.failures, "; "))
	}
	return res
}
