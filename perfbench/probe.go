package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tmcc/internal/cache"
	"tmcc/internal/config"
	"tmcc/internal/content"
	"tmcc/internal/ctecache"
	"tmcc/internal/dram"
	"tmcc/internal/mc"
	"tmcc/internal/memdeflate"
	"tmcc/internal/pagetable"
	"tmcc/internal/sim"
	"tmcc/internal/tlb"
	"tmcc/internal/workload"
)

// sink keeps the compiler from discarding a timed call's result.
var sink uint64

// prober times one layer at a time through its public functions. Every
// loop runs reps times and reports the median, in ns per call unless the
// metric name says ms.
type prober struct {
	seed  int64
	scale int // divides loop lengths; 1 for real runs, larger in tests
	reps  int
	tr    *tracer
	root  spanRef
	rng   *rand.Rand
	out   map[string]float64
}

// probeLayers runs every per-layer timing loop and returns its metrics as a
// pass result (Layer), with the probe's own sim.NewRunner builds in
// BuildMS so the suite, whose builds happen inside the engine, still
// reports construction.
func probeLayers(seed int64, scale int, tr *tracer) passResult {
	p := &prober{seed: seed, scale: scale, reps: 3, tr: tr, rng: rand.New(rand.NewSource(seed)), out: map[string]float64{}}
	if scale > 1 {
		p.reps = 1
	}
	p.root = tr.begin("pass", "probe", spanRef{})
	defer p.root.end()
	res := passResult{Layer: p.out}
	for _, step := range []func(*passResult) error{
		p.traceGen, p.sizeModel, p.codec, p.addressSpace, p.tlbCache, p.cteStructures, p.dramOps, p.mcNew, p.accessPath,
	} {
		res.Attempted++
		if err := step(&res); err != nil {
			res.fail("probe: %v", err)
		}
	}
	return res
}

// loop times n calls of body (given the call index) and records ns/call.
func (p *prober) loop(name string, n int, body func(i int)) {
	n /= p.scale
	sp := p.tr.begin("probe", name, p.root)
	defer sp.end()
	var v []float64
	for r := 0; r < p.reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body(i)
		}
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	p.out[name] = median(v)
}

// timeMS times fn reps times and records the median in milliseconds.
func (p *prober) timeMS(name string, fn func(rep int) error) error {
	sp := p.tr.begin("probe", name, p.root)
	defer sp.end()
	var v []float64
	for r := 0; r < p.reps; r++ {
		t0 := time.Now()
		if err := fn(r); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v = append(v, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	p.out[name] = median(v)
	return nil
}

// traceGen: workload.Trace.Next at the lightest (canneal, GapMean 30) and
// heaviest (triCount, GapMean 132) compute gaps.
func (p *prober) traceGen(*passResult) error {
	for _, c := range []struct{ bench, name string }{
		{"canneal", "workload.trace_next_ns.gap30"},
		{"triCount", "workload.trace_next_ns.gap132"},
	} {
		spec, ok := workload.SpecFor(c.bench)
		if !ok {
			return fmt.Errorf("no spec for %s", c.bench)
		}
		tr := workload.NewTrace(spec, 0, p.seed)
		p.loop(c.name, 200000, func(int) { sink += tr.Next().VAddr })
	}
	return nil
}

// sizeModel: a cold workload.NewSizeModel. Each repetition uses a seed no
// pass uses, so the per-process memo never serves it.
func (p *prober) sizeModel(*passResult) error {
	return p.timeMS("workload.sizemodel_ms", func(rep int) error {
		_, err := workload.NewSizeModel("canneal", 256, p.seed+1000003*int64(rep+1), memdeflate.DefaultParams())
		return err
	})
}

// codec: memdeflate Compress and Decompress per 4KB page over pages of four
// content profiles; every page must round-trip.
func (p *prober) codec(*passResult) error {
	var pages [][]byte
	for _, b := range []string{"pageRank", "mcf", "canneal", "rocksdb"} {
		prof, ok := content.ProfileFor(b)
		if !ok {
			return fmt.Errorf("no content profile for %s", b)
		}
		g := prof.Generator(p.seed)
		for i := 0; i < 16; i++ {
			pages = append(pages, g.Page())
		}
	}
	codec := memdeflate.New(memdeflate.DefaultParams())
	enc := make([][]byte, len(pages))
	var raw, packed int
	for i, pg := range pages {
		e, st, ok := codec.Compress(pg)
		raw += len(pg)
		packed += st.EncodedSize
		if ok {
			enc[i] = append([]byte(nil), e...)
			out, err := codec.Decompress(enc[i])
			if err != nil || !bytes.Equal(out, pg) {
				return fmt.Errorf("memdeflate: page %d does not round-trip (err %v)", i, err)
			}
		}
	}
	p.out["memdeflate.ratio"] = ratio(float64(raw), float64(packed))
	p.loop("memdeflate.compress_ns", 64*8, func(i int) {
		_, st, _ := codec.Compress(pages[i%len(pages)])
		sink += uint64(st.EncodedSize)
	})
	p.loop("memdeflate.decompress_ns", 64*8, func(i int) {
		if e := enc[i%len(enc)]; e != nil {
			out, _ := codec.Decompress(e)
			sink += uint64(len(out))
		}
	})
	return nil
}

// addressSpace: pagetable.BuildAddressSpace for a 262144-page footprint,
// then Table.WalkAppend over random mapped pages.
func (p *prober) addressSpace(*passResult) error {
	const pages = 262144
	var as *pagetable.AddressSpace
	if err := p.timeMS("pagetable.build_address_space_ms", func(int) error {
		as = pagetable.BuildAddressSpace(pages, 4*pages, pagetable.DefaultOSConfig(p.seed))
		return nil
	}); err != nil {
		return err
	}
	lo, hi := as.VPNRange()
	vpns := p.randoms(1<<12, lo, hi)
	var buf []pagetable.Step
	p.loop("pagetable.walk_ns", 400000, func(i int) {
		var ppn uint64
		buf, ppn, _ = as.Table.WalkAppend(buf[:0], vpns[i%len(vpns)])
		sink += ppn
	})
	return nil
}

// randoms draws n values uniformly from [lo, hi).
func (p *prober) randoms(n int, lo, hi uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = lo + uint64(p.rng.Int63n(int64(hi-lo)))
	}
	return v
}

// tlbCache: TLB Lookup (with Insert on a miss, as the core does) and L2
// cache Access/Insert, each over a stream four times the structure's reach
// so hits and misses mix.
func (p *prober) tlbCache(*passResult) error {
	sys := config.Default()
	t := tlb.New(sys.CPU.TLBEntries, sys.CPU.TLBAssoc)
	vpns := p.randoms(1<<16, 0, uint64(4*sys.CPU.TLBEntries))
	p.loop("tlb.lookup_ns", 2000000, func(i int) {
		v := vpns[i&(1<<16-1)]
		if !t.Lookup(v) {
			t.Insert(v)
		}
	})
	c := cache.New(sys.Cache.L2SizeKB*config.KiB, sys.Cache.Assoc)
	blocks := p.randoms(1<<16, 0, uint64(4*c.Lines()))
	p.loop("cache.access_ns", 2000000, func(i int) {
		if c.Access(blocks[i&(1<<16-1)]) {
			sink++
		}
	})
	p.loop("cache.insert_ns", 2000000, func(i int) {
		sink += c.Insert(blocks[(i*7)&(1<<16-1)], 0).Block
	})
	return nil
}

// cteStructures: the per-core CTE Buffer (eight Inserts per PTB load,
// Lookups half of which hit) and the MC's CTE cache (Lookup, Fill on miss).
func (p *prober) cteStructures(*passResult) error {
	sys := config.Default()
	b := ctecache.NewBuffer(sys.Comp.CTEBufEntries)
	ptbs := p.randoms(1<<12, 0, 1<<24)
	p.loop("ctecache.buffer_insert_ns", 2000000, func(i int) {
		const per = pagetable.PTEsPerPTB
		base := ptbs[(i/per)&(1<<12-1)] * per
		b.Insert(ctecache.BufEntry{PPN: base + uint64(i%per), CTE: uint32(i), HasCTE: true, PTBAddr: base})
	})
	// Refill with the last 8 PTBs' pages, then look up a mix of those and
	// absent pages.
	for i := 0; i < sys.Comp.CTEBufEntries; i++ {
		b.Insert(ctecache.BufEntry{PPN: uint64(i)})
	}
	probes := p.randoms(1<<12, 0, uint64(2*sys.Comp.CTEBufEntries))
	p.loop("ctecache.buffer_lookup_ns", 2000000, func(i int) {
		if e, ok := b.Lookup(probes[i&(1<<12-1)]); ok {
			sink += e.PTBAddr + 1
		}
	})
	c := ctecache.New(sys.Comp.CTE)
	ppns := p.randoms(1<<16, 0, 1<<20)
	p.loop("ctecache.lookup_ns", 2000000, func(i int) {
		ppn := ppns[i&(1<<16-1)]
		if !c.Lookup(ppn) {
			c.Fill(ppn)
		}
	})
	return nil
}

// dramOps: dram.Controller Read and Write at random addresses, arrivals
// spaced 10ns apart so queues stay bounded.
func (p *prober) dramOps(*passResult) error {
	sys := config.Default()
	addrs := p.randoms(1<<16, 0, 1<<30)
	for _, op := range []struct {
		name  string
		write bool
	}{{"dram.read_ns", false}, {"dram.write_ns", true}} {
		d := dram.New(sys.DRAM)
		var now config.Time
		p.loop(op.name, 400000, func(i int) {
			now += 10 * config.Nanosecond
			a := addrs[i&(1<<16-1)] &^ (config.BlockSize - 1)
			if op.write {
				sink += uint64(d.Write(now, a))
			} else {
				sink += uint64(d.Read(now, a))
			}
		})
	}
	return nil
}

// mcNew: mc.New per design for canneal at Compresso's natural budget.
func (p *prober) mcNew(*passResult) error {
	sizes, err := workload.NewSizeModel("canneal", 256, p.seed, memdeflate.DefaultParams())
	if err != nil {
		return err
	}
	spec, _ := workload.SpecFor("canneal")
	sys := config.Default()
	budget := sim.CompressoBudgetPages(spec.FootprintPages, sizes)
	for _, k := range kinds {
		cfg := mc.Config{Kind: k, Sys: sys, BudgetPages: budget, OSPages: budget * uint64(sys.Comp.OSExpansion), Sizes: sizes, Seed: p.seed}
		if err := p.timeMS("mc.new_ms."+k.String(), func(int) error {
			_, err := mc.New(cfg)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// accessPath: sim.NewRunner then Runner.Run on canneal per design, timing
// host ns per simulated access. The runs' statistics stand in for the
// simulated work counts of workloads that make no runs of their own.
func (p *prober) accessPath(res *passResult) error {
	const warm, measure = 30000, 100000
	ms := map[string]sim.Metrics{}
	var alloc uint64
	for _, k := range kinds {
		opt := sim.Options{Benchmark: "canneal", Kind: k, Seed: p.seed, WarmupAccesses: warm, MeasureAccesses: measure / p.scale}
		sp := p.tr.begin("sim", "sim.NewRunner canneal/"+k.String(), p.root)
		a0 := totalAlloc()
		t0 := time.Now()
		r, err := sim.NewRunner(opt)
		res.BuildMS = append(res.BuildMS, float64(time.Since(t0).Nanoseconds())/1e6)
		alloc += totalAlloc() - a0
		sp.end()
		if err != nil {
			return err
		}
		sp = p.tr.begin("sim", "sim.Runner.Run canneal/"+k.String(), p.root)
		t0 = time.Now()
		m, err := r.Run()
		p.out["sim.step_ns."+k.String()] = float64(time.Since(t0).Nanoseconds()) / float64(opt.WarmupAccesses+opt.MeasureAccesses)
		sp.end()
		if err != nil {
			return err
		}
		ms[k.String()] = m
	}
	res.BuildAllocMB = float64(alloc) / 1e6 / float64(len(kinds))
	for name, v := range simCounts(ms) {
		p.out[name] = v
	}
	return nil
}
