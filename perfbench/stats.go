package main

import (
	"runtime"
	"sort"
	"time"
)

// opKind is one operation type of a workload's mix.
type opKind int

const (
	opRange opKind = iota
	opNN
	opInsert
	opDelete
	numKinds
)

// outcome sorts one response.
type outcome int

const (
	outOK       outcome = iota // complete answer, verified
	outPartial                 // 200 with partial results or degraded shards
	outShed                    // 429
	outRejected                // any other 4xx, 422 plan_rejected included
	outError                   // transport failure or 5xx
	outWrong                   // complete answer that failed verification
	numOutcomes
)

// recorder collects latencies (microseconds) by operation kind and
// outcomes. One recorder belongs to one goroutine; merge at the end.
type recorder struct {
	lat   [numKinds][]float64
	tally [numOutcomes]int64
}

func (r *recorder) add(k opKind, d time.Duration, o outcome) {
	r.lat[k] = append(r.lat[k], float64(d.Nanoseconds())/1e3)
	r.tally[o]++
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	for i := range r.tally {
		r.tally[i] += o.tally[i]
	}
}

func (r *recorder) total() int64 {
	var n int64
	for _, c := range r.tally {
		n += c
	}
	return n
}

// fill writes the recorder's counts into rep and its median latencies
// into the end-to-end metrics. Tails are not end-to-end metrics: the
// HTTP workloads collect a few hundred range or k-NN samples per run,
// and on a 2-vCPU VM the interquartile range of their p90 and p99 over
// ten seeds reached 50-80% of the median, past any bound a regression
// check can use. The traced run reports p99 as client.range_p99_us and
// client.nn_p99_us.
func (r *recorder) fill(rep *report) {
	count(rep, r)
	rep.metrics["range_p50_us"] = median(r.lat[opRange])
	rep.metrics["nn_p50_us"] = median(r.lat[opNN])
}

// count folds a recorder's outcomes into rep without its latencies.
func count(rep *report, rec *recorder) {
	rep.attempted += rec.total()
	rep.failed += rec.total() - rec.tally[outOK]
	rep.wrong += rec.tally[outWrong]
}

// writes returns the latencies of inserts and deletes together.
func (r *recorder) writes() []float64 {
	return append(append([]float64(nil), r.lat[opInsert]...), r.lat[opDelete]...)
}

// quantile interpolates linearly between the closest ranks of a sorted
// copy of xs; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
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
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
