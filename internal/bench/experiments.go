package bench

import (
	"fmt"

	"cwsp/internal/compiler"
	"cwsp/internal/ir"
	"cwsp/internal/nvmtech"
	"cwsp/internal/schemes"
	"cwsp/internal/sim"
	"cwsp/internal/stats"
	"cwsp/internal/workloads"
)

// variant is one column of a comparison: a scheme over a config, normalized
// against a reference run.
type variant struct {
	name    string
	cfg     sim.Config
	sch     sim.Scheme
	pruned  bool
	mode    string // explicit compile mode; overrides pruned when set
	baseCfg sim.Config
	baseSch sim.Scheme
}

func selfNormalized(name string, cfg sim.Config, sch sim.Scheme, pruned bool) variant {
	return variant{name: name, cfg: cfg, sch: sch, pruned: pruned, baseCfg: cfg, baseSch: sim.Baseline()}
}

// slowdownReport runs every variant over the app list and assembles a
// report: per-app rows (if perApp) followed by per-suite gmeans and the
// overall gmean per column.
func (h *Harness) slowdownReport(id, title, paper string, apps []workloads.Workload, vars []variant, perApp bool) (*Report, error) {
	rep := &Report{ID: id, Title: title, Paper: paper, Summary: map[string]float64{}}
	for _, v := range vars {
		rep.Columns = append(rep.Columns, v.name)
	}
	perVar := make([]map[string]float64, len(vars))
	for i := range perVar {
		perVar[i] = map[string]float64{}
	}
	for _, w := range apps {
		row := Row{Label: w.Name, Suite: w.Suite}
		for i, v := range vars {
			var sd float64
			var err error
			if v.mode != "" {
				sd, err = h.SlowdownVsMode(w, v.cfg, v.sch, v.mode, v.baseCfg, v.baseSch)
			} else {
				sd, err = h.SlowdownVs(w, v.cfg, v.sch, v.pruned, v.baseCfg, v.baseSch)
			}
			if err != nil {
				return nil, err
			}
			perVar[i][w.Name] = sd
			row.Vals = append(row.Vals, sd)
		}
		if perApp {
			rep.Rows = append(rep.Rows, row)
		}
	}
	// Suite gmeans as extra rows.
	for _, s := range workloads.Suites {
		var vals []float64
		has := false
		for i := range vars {
			var xs []float64
			for _, w := range apps {
				if w.Suite == s {
					if v, ok := perVar[i][w.Name]; ok {
						xs = append(xs, v)
						has = true
					}
				}
			}
			vals = append(vals, stats.GMean(xs))
		}
		if has {
			rep.Rows = append(rep.Rows, Row{Label: "gmean", Suite: s, Vals: vals})
		}
	}
	allRow := Row{Label: "gmean", Suite: "All"}
	for i, v := range vars {
		var xs []float64
		for _, w := range apps {
			if x, ok := perVar[i][w.Name]; ok {
				xs = append(xs, x)
			}
		}
		g := stats.GMean(xs)
		allRow.Vals = append(allRow.Vals, g)
		rep.Summary["gmean:"+v.name] = g
	}
	rep.Rows = append(rep.Rows, allRow)
	return rep, nil
}

// fig01Hierarchy returns the 2..5-level cache hierarchies of Figure 1,
// scaled like everything else (paper sizes in comments).
func fig01Hierarchy(levels int) sim.Config {
	c := sim.DefaultConfig()
	// Private-L2-class cache (paper: 1MB, 14 cycles).
	c.L2Bytes = 128 << 10
	c.L2Ways = 8
	c.L2Lat = 14
	c.L3Bytes = 0
	c.DRAMBytes = 0
	if levels >= 3 { // paper: +16MB L3, 44 cycles
		c.L3Bytes = 1 << 20
		c.L3Ways = 16
		c.L3Lat = 44
	}
	if levels >= 4 { // paper: +128MB L4, 82 cycles
		c.DRAMBytes = 4 << 20
		c.DRAMLat = 82
	}
	if levels >= 5 { // paper: +4GB DRAM cache
		c.DRAMBytes = 8 << 20
		c.DRAMLat = 100
	}
	return c
}

func init() {
	registerExp("fig01", "CXL PMEM vs CXL DRAM slowdown with 2-5 cache levels",
		func(h *Harness) (*Report, error) {
			apps := workloads.MemIntensive()
			var vars []variant
			for lv := 2; lv <= 5; lv++ {
				cfg := fig01Hierarchy(lv).WithNVM(nvmtech.CXLD)
				ref := fig01Hierarchy(lv).WithNVM(nvmtech.DRAM)
				vars = append(vars, variant{
					name: fmt.Sprintf("%d-levels", lv),
					cfg:  cfg, sch: sim.Baseline(), pruned: true,
					baseCfg: ref, baseSch: sim.Baseline(),
				})
			}
			return h.slowdownReport("fig01",
				"CXL PMEM main memory normalized to CXL DRAM, deepening hierarchy",
				"2.14x at 2 levels dropping to 1.34x at 5 levels",
				apps, vars, h.Opt.PerApp)
		})

	registerExp("fig06", "average L1D write-buffer occupancy, baseline vs cWSP",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			rep := &Report{
				ID: "fig06", Title: "avg WB entries",
				Paper:   "both baseline and cWSP average 0.39 entries",
				Columns: []string{"baseline", "cwsp"},
				Summary: map[string]float64{},
			}
			var vb, vc []float64
			for _, w := range workloads.All() {
				sb, err := h.RunStats(w, cfg, sim.Baseline(), true)
				if err != nil {
					return nil, err
				}
				sc, err := h.RunStats(w, cfg, sim.CWSP(), true)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, Row{Label: w.Name, Suite: w.Suite,
					Vals: []float64{sb.WBAvgOcc, sc.WBAvgOcc}})
				vb = append(vb, sb.WBAvgOcc)
				vc = append(vc, sc.WBAvgOcc)
			}
			rep.Summary["mean:baseline"] = stats.Mean(vb)
			rep.Summary["mean:cwsp"] = stats.Mean(vc)
			return rep, nil
		})

	registerExp("fig08", "WPQ hits per 1M instructions",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			rep := &Report{
				ID: "fig08", Title: "WPQ HPMI under cWSP",
				Paper:   "0.98 hits per million instructions on average",
				Columns: []string{"hpmi"},
				Summary: map[string]float64{},
			}
			var all []float64
			for _, w := range workloads.All() {
				st, err := h.RunStats(w, cfg, sim.CWSP(), true)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, Row{Label: w.Name, Suite: w.Suite,
					Vals: []float64{st.WPQHPMI()}})
				all = append(all, st.WPQHPMI())
			}
			rep.Summary["mean"] = stats.Mean(all)
			return rep, nil
		})

	registerExp("fig13", "cWSP run-time overhead per application",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			return h.slowdownReport("fig13",
				"cWSP normalized to baseline (4 GB/s persist path)",
				"6% average overhead; SPLASH3 (lu, radix) worst",
				workloads.All(),
				[]variant{selfNormalized("cwsp", cfg, sim.CWSP(), true)},
				true)
		})

	registerExp("fig14", "cWSP vs ReplayCache and Capri",
		func(h *Harness) (*Report, error) {
			cfg4 := sim.DefaultConfig()
			cfg32 := sim.DefaultConfig().PersistPathGBs(32)
			vars := []variant{
				selfNormalized("replaycache", cfg4, schemes.ReplayCache(), true),
				selfNormalized("capri-4GB", cfg4, schemes.Capri(), true),
				selfNormalized("capri-32GB", cfg32, schemes.Capri(), true),
				selfNormalized("cwsp-4GB", cfg4, sim.CWSP(), true),
				selfNormalized("cwsp-32GB", cfg32, sim.CWSP(), true),
			}
			return h.slowdownReport("fig14",
				"WSP schemes normalized to baseline",
				"ReplayCache 4.3x; Capri 27% at 4GB/s, ~cWSP at 32GB/s; cWSP 6%",
				workloads.All(), vars, h.Opt.PerApp)
		})

	registerExp("fig15", "performance impact of each cWSP optimization",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			vars := []variant{
				selfNormalized("+regions", cfg, schemes.RegionOnly(), false),
				selfNormalized("+persistpath", cfg, schemes.PersistPath(), false),
				selfNormalized("+mcspec", cfg, schemes.MCSpec(), false),
				selfNormalized("+wbdelay", cfg, schemes.WBDelay(), false),
				selfNormalized("+wpqdelay", cfg, schemes.WPQDelay(), false),
				selfNormalized("+pruning", cfg, sim.CWSP(), true),
			}
			return h.slowdownReport("fig15",
				"cumulative optimization breakdown",
				"region formation 4%; +persist path 10%; spec/WB/WPQ flat; pruning down to 6%",
				workloads.All(), vars, true)
		})

	registerExp("fig17", "cWSP on CXL-based NVM devices (Table I)",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, t := range nvmtech.CXLDevices {
				cfg := sim.DefaultConfig().WithNVM(t)
				vars = append(vars, selfNormalized(t.Name, cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig17",
				"cWSP normalized to baseline on the same CXL device",
				"~4% average; slightly higher on faster devices",
				workloads.MemIntensive(), vars, true)
		})

	registerExp("fig18", "cWSP vs ideal partial-system persistence",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			vars := []variant{
				selfNormalized("cwsp", cfg, sim.CWSP(), true),
				// PSP runs with DRAM as main memory elsewhere (no DRAM
				// cache); normalized against the DRAM-cache baseline.
				{name: "psp-ideal", cfg: cfg, sch: schemes.PSPIdeal(), pruned: true,
					baseCfg: cfg, baseSch: sim.Baseline()},
			}
			return h.slowdownReport("fig18",
				"whole-system vs ideal partial-system persistence (BBB/eADR/LightPC)",
				"cWSP 3%; ideal PSP 52% (memory-intensive subset)",
				workloads.MemIntensive(), vars, true)
		})

	registerExp("fig19", "dynamic instructions per region",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			rep := &Report{
				ID: "fig19", Title: "average dynamic instructions per region",
				Paper:   "38.15 instructions per region on average",
				Columns: []string{"instr/region"},
				Summary: map[string]float64{},
			}
			var all []float64
			for _, w := range workloads.All() {
				st, err := h.RunStats(w, cfg, sim.CWSP(), true)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, Row{Label: w.Name, Suite: w.Suite,
					Vals: []float64{st.IPR()}})
				all = append(all, st.IPR())
			}
			rep.Summary["mean"] = stats.Mean(all)
			return rep, nil
		})

	registerExp("fig20", "cWSP with a deeper (3-level SRAM) hierarchy",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig().WithL3()
			return h.slowdownReport("fig20",
				"cWSP normalized to baseline, both with private L2 + shared L3",
				"8% average overhead",
				workloads.All(),
				[]variant{selfNormalized("cwsp-L3", cfg, sim.CWSP(), true)},
				h.Opt.PerApp)
		})

	registerExp("fig21", "sensitivity to persist-path bandwidth",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, gb := range []float64{1, 2, 4, 10, 20, 32} {
				cfg := sim.DefaultConfig().PersistPathGBs(gb)
				vars = append(vars, selfNormalized(fmt.Sprintf("%.0fGB", gb), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig21",
				"cWSP slowdown, persist path 1..32 GB/s",
				"overhead falls with bandwidth; flat beyond 10 GB/s",
				workloads.All(), vars, false)
		})

	registerExp("fig22", "sensitivity to RBT size",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, n := range []int{8, 16, 32} {
				cfg := sim.DefaultConfig()
				cfg.RBTSize = n
				vars = append(vars, selfNormalized(fmt.Sprintf("RBT-%d", n), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig22",
				"cWSP slowdown with varying RBT entries",
				"11% at 8 entries (20% SPLASH3), 6% at 16, 4% at 32",
				workloads.All(), vars, false)
		})

	registerExp("fig23", "sensitivity to persist-path latency",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, ns := range []int64{10, 20, 30, 40} {
				cfg := sim.DefaultConfig()
				cfg.PPOneWayLat = ns // 1 cycle = 0.5ns; one-way = ns at 2GHz/2
				vars = append(vars, selfNormalized(fmt.Sprintf("Lat-%d", ns), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig23",
				"cWSP slowdown with 10..40ns persist-path latency",
				"almost fully overlapped by region execution at every latency",
				workloads.All(), vars, false)
		})

	registerExp("fig24", "sensitivity to L1D write-buffer size",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, n := range []int{8, 16, 32} {
				cfg := sim.DefaultConfig()
				cfg.WBSize = n
				vars = append(vars, selfNormalized(fmt.Sprintf("WB-%d", n), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig24",
				"cWSP slowdown with varying WB size",
				"flat: the persist path outruns the regular path",
				workloads.All(), vars, false)
		})

	registerExp("fig25", "sensitivity to persist buffer size",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, n := range []int{20, 40, 50, 60} {
				cfg := sim.DefaultConfig()
				cfg.PBSize = n
				vars = append(vars, selfNormalized(fmt.Sprintf("PB-%d", n), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig25",
				"cWSP slowdown with varying PB entries",
				"insensitive; at most 7% even with 20 entries",
				workloads.All(), vars, false)
		})

	registerExp("fig26", "sensitivity to WPQ size",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, n := range []int{8, 16, 24, 32} {
				cfg := sim.DefaultConfig()
				cfg.WPQSize = n
				vars = append(vars, selfNormalized(fmt.Sprintf("WPQ-%d", n), cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig26",
				"cWSP slowdown with varying WPQ entries",
				"11% at 8 entries (SPLASH3 up to 31%), flat at 24+",
				workloads.All(), vars, false)
		})

	registerExp("fig27", "sensitivity to NVM technology",
		func(h *Harness) (*Report, error) {
			var vars []variant
			for _, t := range []nvmtech.Tech{nvmtech.PMEM, nvmtech.STTMRAM, nvmtech.ReRAM} {
				cfg := sim.DefaultConfig().WithNVM(t)
				vars = append(vars, selfNormalized(t.Name, cfg, sim.CWSP(), true))
			}
			return h.slowdownReport("fig27",
				"cWSP slowdown across NVM technologies",
				"low everywhere; marginally higher relative overhead on faster NVM",
				workloads.All(), vars, false)
		})

	registerExp("hwcost", "hardware storage overhead (Section IX-N)",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			const rbtEntryBytes = 11 // RegionID+PendingWrs+MCBitVec+RS pointer (Figure 9)
			cwspBytes := float64(cfg.RBTSize * rbtEntryBytes)
			// Capri: (N+1) x M x 18KB with N MCs and M cores.
			capriPerCore := float64((cfg.NumMCs + 1) * 18 << 10)
			rep := &Report{
				ID: "hwcost", Title: "per-core storage overhead (bytes)",
				Paper:   "cWSP 176 B vs Capri 54 KB per core (346x)",
				Columns: []string{"bytes"},
				Summary: map[string]float64{},
			}
			rep.Rows = append(rep.Rows,
				Row{Label: "cwsp-rbt", Vals: []float64{cwspBytes}},
				Row{Label: "capri-buffers", Vals: []float64{capriPerCore}},
			)
			rep.Summary["capri/cwsp"] = capriPerCore / cwspBytes
			rep.Notes = append(rep.Notes,
				"cWSP's PB reuses the existing 1KB write-combining buffer (no new storage)")
			return rep, nil
		})

	registerExp("abl-ckpt", "ablation: checkpoint-optimizer ladder (this repo)",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			mk := func(name, mode string) variant {
				v := selfNormalized(name, cfg, sim.CWSP(), true)
				v.mode = mode
				return v
			}
			vars := []variant{
				mk("unpruned", "unpruned"),
				mk("chain0", "prune-chain0"),
				mk("chain1", "prune-chain1"),
				mk("no-hoist", "prune-nohoist"),
				mk("full", "pruned"),
			}
			return h.slowdownReport("abl-ckpt",
				"cWSP slowdown under increasingly capable checkpoint optimization",
				"(extension) pruning depth and hoisting each buy measurable overhead",
				workloads.All(), vars, false)
		})

	registerExp("abl-gran", "ablation: persist granularity 8B vs 64B (this repo)",
		func(h *Harness) (*Report, error) {
			gran64 := sim.CWSP()
			gran64.Name = "cwsp-64B"
			gran64.GranularityBytes = 64
			var vars []variant
			for _, gb := range []float64{1, 4, 32} {
				cfg := sim.DefaultConfig().PersistPathGBs(gb)
				vars = append(vars,
					selfNormalized(fmt.Sprintf("8B@%.0fGB", gb), cfg, sim.CWSP(), true),
					selfNormalized(fmt.Sprintf("64B@%.0fGB", gb), cfg, gran64, true))
			}
			return h.slowdownReport("abl-gran",
				"word- vs line-granularity persistence across path bandwidths",
				"(extension) the 8x bandwidth claim of Section V-A2 isolated",
				workloads.All(), vars, false)
		})

	registerExp("abl-log", "ablation: undo-log media traffic (this repo)",
		func(h *Harness) (*Report, error) {
			cfg := sim.DefaultConfig()
			free := sim.CWSP()
			free.Name = "cwsp-logfree"
			free.LogBytes = -1
			line := sim.CWSP()
			line.Name = "cwsp-linelog"
			line.LogBytes = 72 // full-line logging (Capri-style 64B + header)
			vars := []variant{
				selfNormalized("log-free", cfg, free, true),
				selfNormalized("log-16B", cfg, sim.CWSP(), true),
				selfNormalized("log-72B", cfg, line, true),
			}
			return h.slowdownReport("abl-log",
				"cost of MC-speculation undo logging at the NVM media",
				"(extension) word-granularity logs keep speculation nearly free",
				workloads.All(), vars, false)
		})

	registerExpDirect("mt", "multi-core scaling of cWSP overhead (this repo)",
		func(h *Harness) (*Report, error) {
			// Fixed total work (iterations split across threads) on the
			// lock-based critical-section benchmark; overhead of cWSP vs
			// the baseline at each core count.
			const totalIters = 4096
			rep := &Report{
				ID: "mt", Title: "cWSP slowdown vs baseline, 1..8 cores",
				Paper:   "(extension) the paper simulates 8 cores; sync drains are the MT cost",
				Columns: []string{"base-cycles", "cwsp-cycles", "slowdown"},
				Summary: map[string]float64{},
			}
			prog := workloads.BuildMTWorker()
			compiled, _, err := compiler.Compile(prog, compiler.DefaultOptions())
			if err != nil {
				return nil, err
			}
			div := int64(h.Opt.Scale.Div)
			for _, cores := range []int{1, 2, 4, 8} {
				iters := totalIters / int64(cores) / div
				if iters < 4 {
					iters = 4
				}
				var specs []sim.ThreadSpec
				for t := 0; t < cores; t++ {
					specs = append(specs, sim.ThreadSpec{Fn: "worker", Args: []int64{int64(t), iters}})
				}
				cfg := sim.DefaultConfig()
				cfg.Cores = cores
				run := func(p *ir.Program, sch sim.Scheme) (sim.Stats, error) {
					m, err := sim.NewThreaded(p, cfg, sch, specs)
					if err != nil {
						return sim.Stats{}, err
					}
					return m.RunStats()
				}
				base, err := run(prog, sim.Baseline())
				if err != nil {
					return nil, err
				}
				cw, err := run(compiled, sim.CWSP())
				if err != nil {
					return nil, err
				}
				sd := cw.Slowdown(base)
				rep.Rows = append(rep.Rows, Row{
					Label: fmt.Sprintf("%d-cores", cores),
					Vals:  []float64{float64(base.Cycles), float64(cw.Cycles), sd},
				})
				rep.Summary[fmt.Sprintf("slowdown:%d-cores", cores)] = sd
			}
			return rep, nil
		})

	registerExpDirect("compiler", "static compiler statistics (regions, checkpoints, pruning)",
		func(h *Harness) (*Report, error) {
			rep := &Report{
				ID: "compiler", Title: "regions and checkpoint pruning per workload",
				Paper:   "pruning eliminates redundant checkpoints (Section IV-C)",
				Columns: []string{"regions", "ckpt-inserted", "ckpt-final", "pruned%"},
				Summary: map[string]float64{},
			}
			var rates []float64
			for _, w := range workloads.All() {
				p := w.Build(h.Opt.Scale)
				_, cr, err := compiler.Compile(p, compiler.DefaultOptions())
				if err != nil {
					return nil, err
				}
				ins, fin := 0, 0
				for _, f := range cr.Funcs {
					ins += f.Ckpt.Inserted
					fin += f.Ckpt.Final
				}
				rate := 0.0
				if ins > 0 {
					rate = 100 * float64(ins-fin) / float64(ins)
				}
				rates = append(rates, rate)
				rep.Rows = append(rep.Rows, Row{Label: w.Name, Suite: w.Suite,
					Vals: []float64{float64(cr.TotalRegions()), float64(ins), float64(fin), rate}})
			}
			rep.Summary["mean-pruned%"] = stats.Mean(rates)
			return rep, nil
		})
}
