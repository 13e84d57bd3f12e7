package main

import (
	"bufio"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/chaincode"
	"repro/internal/costmodel"
	"repro/internal/fabric"
	"repro/internal/ledger"
	wl "repro/internal/workload"
)

// spanKind names a boundary the benchmark can see from outside: the
// two calls it makes into fabric itself, and every method of the three
// interfaces a Config accepts.
type spanKind uint8

const (
	spNewNetwork spanKind = iota
	spRun
	spChaincodeInit
	spChaincodeInvoke
	spWorkloadNext
	spVariantAdjust
	spVariantOnSubmit
	spVariantOnCut
	spVariantOnBlockValidated
	spanKinds
)

var spanNames = [spanKinds]string{
	"fabric.new_network", "fabric.run",
	"chaincode.init", "chaincode.invoke",
	"workload.next",
	"variant.adjust", "variant.on_submit", "variant.on_cut", "variant.on_block_validated",
}

// span is one timed call. Its id is its index in the tracer's slice;
// start and end are nanoseconds since traceEpoch.
type span struct {
	kind       spanKind
	parent     int32 // -1 for a root span
	start, end int64
}

// traceEpoch is the common time origin of every tracer in the process.
var traceEpoch = time.Now()

// tracer collects the spans and boundary counts of one simulation in
// memory. A simulation is single-threaded, so a tracer needs no lock;
// concurrent simulations get a tracer each.
type tracer struct {
	rep   int // which simulation of the traced run this is
	spans []span
	cur   int32 // innermost open span, -1 outside any

	// Counts taken at the same boundaries as the spans.
	invocations []wl.Invocation // every generated invocation, in order
	invokeErrs  int
	ops         costmodel.OpTrace // summed Stub.Trace() of every invocation
	earlyAborts int               // rejected by OnSubmit or aborted by OnCut
}

func newTracer(rep int) *tracer { return &tracer{rep: rep, cur: -1} }

func (t *tracer) begin(k spanKind) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.cur, start: int64(time.Since(traceEpoch))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.end = int64(time.Since(traceEpoch))
	t.cur = s.parent
}

// wrap returns cfg with its three pluggable interfaces decorated. The
// decorators only forward, so the simulation is unchanged.
func (t *tracer) wrap(cfg fabric.Config) fabric.Config {
	cfg.Chaincode = tracedChaincode{cfg.Chaincode, t}
	cfg.Workload = tracedGenerator{cfg.Workload, t}
	if cfg.Variant == nil {
		cfg.Variant = fabric.Vanilla{} // what NewNetwork substitutes for nil
	}
	cfg.Variant = tracedVariant{cfg.Variant, t}
	return cfg
}

type tracedChaincode struct {
	chaincode.Chaincode
	t *tracer
}

func (c tracedChaincode) Init(stub *chaincode.Stub) error {
	id := c.t.begin(spChaincodeInit)
	defer c.t.end(id)
	return c.Chaincode.Init(stub)
}

func (c tracedChaincode) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	id := c.t.begin(spChaincodeInvoke)
	err := c.Chaincode.Invoke(stub, fn, args)
	c.t.end(id)
	if err != nil {
		c.t.invokeErrs++
	}
	ops := stub.Trace()
	c.t.ops.Gets += ops.Gets
	c.t.ops.Puts += ops.Puts
	c.t.ops.Deletes += ops.Deletes
	c.t.ops.Ranges += ops.Ranges
	c.t.ops.RangeKeys += ops.RangeKeys
	return err
}

type tracedGenerator struct {
	wl.Generator
	t *tracer
}

func (g tracedGenerator) Next(rng *rand.Rand) wl.Invocation {
	id := g.t.begin(spWorkloadNext)
	inv := g.Generator.Next(rng)
	g.t.end(id)
	g.t.invocations = append(g.t.invocations, inv)
	return inv
}

type tracedVariant struct {
	fabric.Variant
	t *tracer
}

func (v tracedVariant) Adjust(cfg *fabric.Config) {
	id := v.t.begin(spVariantAdjust)
	defer v.t.end(id)
	v.Variant.Adjust(cfg)
}

func (v tracedVariant) OnSubmit(tx *ledger.Transaction) (bool, time.Duration) {
	id := v.t.begin(spVariantOnSubmit)
	accept, cost := v.Variant.OnSubmit(tx)
	v.t.end(id)
	if !accept {
		v.t.earlyAborts++
	}
	return accept, cost
}

func (v tracedVariant) OnCut(batch []*ledger.Transaction) (kept, aborted []*ledger.Transaction, cost time.Duration) {
	id := v.t.begin(spVariantOnCut)
	kept, aborted, cost = v.Variant.OnCut(batch)
	v.t.end(id)
	v.t.earlyAborts += len(aborted)
	return kept, aborted, cost
}

func (v tracedVariant) OnBlockValidated(b *ledger.Block, codes []ledger.ValidationCode) {
	id := v.t.begin(spVariantOnBlockValidated)
	defer v.t.end(id)
	v.Variant.OnBlockValidated(b, codes)
}

// kindStats summarises the spans of one kind.
type kindStats struct {
	calls int
	total time.Duration
	p99   time.Duration
}

// perCall is the mean duration of a call in nanoseconds.
func (s kindStats) perCall() float64 { return per(s.total, s.calls) }

// stats sums every tracer's spans by kind.
func stats(tracers []*tracer) [spanKinds]kindStats {
	var out [spanKinds]kindStats
	durs := make([][]int64, spanKinds)
	for _, t := range tracers {
		for _, s := range t.spans {
			durs[s.kind] = append(durs[s.kind], s.end-s.start)
		}
	}
	for k, ds := range durs {
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total int64
		for _, d := range ds {
			total += d
		}
		out[k] = kindStats{calls: len(ds), total: time.Duration(total), p99: time.Duration(ds[len(ds)*99/100])}
	}
	return out
}

// selfTime is the part of the spans of kind k that none of their child
// spans cover: for fabric.run, what the boundary wrappers cannot see.
func selfTime(tracers []*tracer, k spanKind) time.Duration {
	var self int64
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.kind == k {
				self += s.end - s.start
			} else if s.parent >= 0 && t.spans[s.parent].kind == k {
				self -= s.end - s.start
			}
		}
	}
	return time.Duration(self)
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, tracers []*tracer) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, t := range tracers {
		for id, s := range t.spans {
			line = append(line[:0], `{"rep":`...)
			line = strconv.AppendInt(line, int64(t.rep), 10)
			line = append(line, `,"id":`...)
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.kind]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			w.Write(line) // the error is sticky and surfaces at Flush
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
