package system

// Observability wiring: when a run carries an obs.Observer, the
// machine registers every component's metrics into the observer's
// registry (subsuming the ad-hoc stats structs of memctrl, cpu, cache,
// and noc under stable labelled names) and threads the DRAM command
// tracer through each memory controller. Gauges only read component
// state; delta gauges keep their previous snapshot in closure state and
// rely on the registry's documented in-order, once-per-gather
// evaluation.

import (
	"microbank/internal/memctrl"
	"microbank/internal/obs"
	"microbank/internal/stats"
)

// wireObs registers all metric sources and attaches the tracer.
func (m *machine) wireObs(o *obs.Observer) {
	reg := o.Registry
	// Epoch length in picoseconds, for rate gauges. Without a sampler
	// the gauges are never evaluated; 1 keeps the math well-defined.
	epochPS := 1.0
	if o.Sampler != nil {
		epochPS = float64(o.Sampler.Every())
	}
	lineBytes := float64(m.spec.Sys.Mem.Org.CacheLineBytes)

	for ch, ctl := range m.ctrls {
		ctl := ctl
		if o.Tracer != nil {
			ctl.SetTracer(o.Tracer, ch)
		}
		lch := obs.L("ch", ch)
		reg.GaugeFunc("mem.queue_depth", func() float64 {
			return float64(ctl.QueueLen())
		}, lch)
		reg.GaugeFunc("mem.banks_open", func() float64 {
			return float64(ctl.Channel().OpenBanks())
		}, lch)
		reg.GaugeFunc("mem.busy_banks", func() float64 {
			busy, _ := ctl.BankOccupancy()
			return float64(busy)
		}, lch)
		reg.GaugeFunc("mem.max_bank_queue", func() float64 {
			_, maxQ := ctl.BankOccupancy()
			return float64(maxQ)
		}, lch)
		// Per-epoch rates. The first gauge snapshots the controller and
		// computes every delta; the rest read the shared result (gauges
		// evaluate once per gather, in registration order).
		var prev memctrl.Stats
		var cur struct{ writeBW, rowHit, pred float64 }
		reg.GaugeFunc("mem.read_bw_gbps", func() float64 {
			s := ctl.Stats()
			dr := s.Reads - prev.Reads
			dw := s.Writes - prev.Writes
			dh := s.RowHits - prev.RowHits
			cur.writeBW = float64(dw) * lineBytes * 1000 / epochPS
			cur.rowHit = stats.Ratio(dh, dr+dw)
			cur.pred = stats.Ratio(s.PredRight-prev.PredRight, s.PredDecisions-prev.PredDecisions)
			prev = s
			return float64(dr) * lineBytes * 1000 / epochPS
		}, lch)
		reg.GaugeFunc("mem.write_bw_gbps", func() float64 { return cur.writeBW }, lch)
		reg.GaugeFunc("mem.row_hit_rate", func() float64 { return cur.rowHit }, lch)
		reg.GaugeFunc("mem.pred_accuracy", func() float64 { return cur.pred }, lch)
		// QoS plane: whole-run p99 request latency across threads and the
		// bandwidth-regulator deferral count (0 with the regulator off).
		reg.GaugeFunc("mem.lat_p99_ns", func() float64 {
			var all stats.Histogram
			lats := ctl.ThreadLatencies()
			for t := range lats {
				all.Merge(&lats[t])
			}
			return float64(all.Quantile(0.99)) / 1000
		}, lch)
		reg.GaugeFunc("mem.reg_deferred", func() float64 {
			return float64(ctl.Stats().RegDeferred)
		}, lch)
	}

	reg.GaugeFunc("cpu.instr_retired", func() float64 {
		var n uint64
		for _, c := range m.cores {
			n += c.Stats().Instructions
		}
		return float64(n)
	})
	{
		var prevInstr uint64
		corePeriod := float64(m.spec.Sys.CoreClock().Period())
		cores := float64(len(m.cores))
		reg.GaugeFunc("cpu.commit_ipc", func() float64 {
			var n uint64
			for _, c := range m.cores {
				n += c.Stats().Instructions
			}
			d := n - prevInstr
			prevInstr = n
			cycles := epochPS / corePeriod * cores
			if cycles == 0 {
				return 0
			}
			return float64(d) / cycles
		})
	}

	{
		var prevA, prevH uint64
		reg.GaugeFunc("cache.l1_hit_rate", func() float64 {
			var a, h uint64
			for _, c := range m.l1s {
				s := c.Stats()
				a += s.Accesses
				h += s.Hits
			}
			r := stats.Ratio(h-prevH, a-prevA)
			prevA, prevH = a, h
			return r
		})
	}
	{
		var prevA, prevH uint64
		reg.GaugeFunc("cache.l2_hit_rate", func() float64 {
			var a, h uint64
			for _, c := range m.l2s {
				s := c.Stats()
				a += s.Accesses
				h += s.Hits
			}
			r := stats.Ratio(h-prevH, a-prevA)
			prevA, prevH = a, h
			return r
		})
	}
	reg.GaugeFunc("noc.packets", func() float64 { return float64(m.mesh.Packets) })
	reg.GaugeFunc("noc.avg_hops", func() float64 { return m.mesh.AvgHops() })
}
