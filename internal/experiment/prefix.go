package experiment

import (
	"fmt"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
)

// PrefixConfig parameterizes the longest-shared-prefix pipeline
// experiment (E17): N users share one document whose personal chains
// overlap — every user runs the same expensive translate property
// before their own cheap watermark. The single-cut split (E12's
// protocol) can only memoize the universal stage, so every user's miss
// re-executes the shared translate; the N-cut pipeline shares its
// output across users, making miss-path compute scale with the number
// of distinct chain prefixes instead of the number of users.
type PrefixConfig struct {
	// Users lists the fan-out levels to measure.
	Users []int
	// DocSize is the document size in bytes.
	DocSize int64
	// UniversalCost is the simulated execution cost of each of the two
	// universal transforms.
	UniversalCost time.Duration
	// SharedCost is the simulated cost of the translate property every
	// user's personal chain starts with — the shared personal prefix.
	SharedCost time.Duration
	// PersonalCost is the simulated cost of each user's watermark, the
	// only truly per-user segment.
	PersonalCost time.Duration
	// Seed fixes simulated jitter.
	Seed int64
}

// DefaultPrefixConfig returns the configuration used by plbench.
func DefaultPrefixConfig() PrefixConfig {
	// 4 KiB keeps the raw-bit fetch (which every miss pays regardless
	// of mode — the source signature is half of every memo key) from
	// flooring the per-read time and hiding the compute sharing under
	// measurement.
	return PrefixConfig{
		Users:         []int{8, 16, 32, 64, 96},
		DocSize:       4 << 10,
		UniversalCost: 2 * time.Millisecond,
		SharedCost:    4 * time.Millisecond,
		PersonalCost:  100 * time.Microsecond,
		Seed:          1,
	}
}

// PrefixRow is one fan-out level's measurements of the cold miss storm
// (every user reads once, nothing warm).
type PrefixRow struct {
	// Users is the fan-out level.
	Users int
	// FullMiss is the mean per-read simulated miss time with
	// memoization off.
	FullMiss time.Duration
	// SingleMiss is the mean miss time under the single-cut baseline
	// (universal/personal boundary only, E12's protocol).
	SingleMiss time.Duration
	// MultiMiss is the mean miss time under the N-cut prefix pipeline.
	MultiMiss time.Duration
	// SpeedupVsSingle is SingleMiss / MultiMiss: what the generalized
	// pipeline buys over boundary-only memoization.
	SpeedupVsSingle float64
	// SharedRunsSingle and SharedRunsMulti count executions of the
	// shared translate property in each mode. Single-cut cannot share
	// it (one run per user); multi-cut runs it once per distinct
	// prefix — one, here.
	SharedRunsSingle int64
	SharedRunsMulti  int64
	// UniversalRuns is the universal-stage executions in multi-cut mode.
	UniversalRuns int64
	// PrefixHits counts multi-cut misses resumed from a cached prefix.
	PrefixHits int64
}

// PrefixResult is experiment E17's output.
type PrefixResult struct {
	Config PrefixConfig
	Rows   []PrefixRow
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r PrefixResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Users),
			fmtMS(row.FullMiss),
			fmtMS(row.SingleMiss),
			fmtMS(row.MultiMiss),
			fmt.Sprintf("%.2fx", row.SpeedupVsSingle),
			fmt.Sprintf("%d", row.SharedRunsSingle),
			fmt.Sprintf("%d", row.SharedRunsMulti),
			fmt.Sprintf("%d", row.UniversalRuns),
			fmt.Sprintf("%d", row.PrefixHits),
		})
	}
	return []string{"users", "full ms", "single-cut ms", "multi-cut ms", "vs single", "shared runs (single)", "shared runs (multi)", "universal runs", "prefix hits"}, rows
}

// Table renders the result as an aligned text table.
func (r PrefixResult) Table() string {
	header, rows := r.TableData()
	return table(header, rows)
}

// CSV renders the result as comma-separated values.
func (r PrefixResult) CSV() string {
	header, rows := r.TableData()
	return csvTable(header, rows)
}

// prefixMode selects the memoization protocol under measurement.
type prefixMode int

const (
	prefixOff    prefixMode = iota // no memoization
	prefixSingle                   // boundary-only (E12 protocol)
	prefixMulti                    // N-cut longest-prefix pipeline
)

// singleCut is E17's boundary-only baseline, the original two-segment
// protocol, as a memo store over a cache: only the universal/personal
// boundary cut reaches the cache; every other cut executes its segment
// and reports no hit. LongestPrefix is the cache's own — the cache
// then holds boundary cuts only, so the probe can resume only there.
type singleCut struct{ *core.Cache }

// PrefixIntermediate implements docspace.Intermediates.
func (s singleCut) PrefixIntermediate(doc, user string, src sig.Signature, cut docspace.Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	if !cut.Universal {
		data, err := compute()
		return data, false, err
	}
	return s.Cache.PrefixIntermediate(doc, user, src, cut, compute)
}

// runPrefixMode builds one world — a two-transform universal chain and
// a personal chain of [shared translate, per-user watermark] — and
// drives the cold miss storm: every user reads once, nothing warm. It
// returns the mean simulated read time, the number of times the shared
// translate executed, and the cache's final counters.
func runPrefixMode(cfg PrefixConfig, users int, mode prefixMode) (time.Duration, int64, core.Stats, error) {
	clk := clock.NewVirtual(epoch)
	src := repo.NewMem("localfs", clk, simnet.Local(cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{
		Name:    "prefix",
		Memoize: mode != prefixOff,
	})

	const id = "shared"
	if err := src.Store("/"+id, Content(id, cfg.DocSize)); err != nil {
		return 0, 0, core.Stats{}, err
	}
	if _, err := space.CreateDocument(id, memoUserID(0), &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
		return 0, 0, core.Stats{}, err
	}
	for _, p := range []*property.Transformer{
		property.NewSpellCorrector(cfg.UniversalCost),
		property.NewLineNumberer(cfg.UniversalCost),
	} {
		if err := space.Attach(id, "", docspace.Universal, p); err != nil {
			return 0, 0, core.Stats{}, err
		}
	}

	// Every user's personal chain starts with the same translate
	// property (same dictionary, same memo key — an identical shared
	// prefix) followed by their own watermark. The instances are
	// per-user; the counter is shared, so it counts actual executions
	// of the translate transform across the whole storm.
	var sharedRuns int64
	for i := 0; i < users; i++ {
		u := memoUserID(i)
		if i > 0 {
			if _, err := space.AddReference(id, u); err != nil {
				return 0, 0, core.Stats{}, err
			}
		}
		tr := property.NewTranslator(cfg.SharedCost)
		inner := tr.ReadTransform
		tr.ReadTransform = func(b []byte) []byte {
			sharedRuns++
			return inner(b)
		}
		if err := space.Attach(id, u, docspace.Personal, tr); err != nil {
			return 0, 0, core.Stats{}, err
		}
		if err := space.Attach(id, u, docspace.Personal, property.NewWatermarker(u, cfg.PersonalCost)); err != nil {
			return 0, 0, core.Stats{}, err
		}
	}

	var total time.Duration
	for i := 0; i < users; i++ {
		start := clk.Now()
		var err error
		if mode == prefixSingle {
			_, _, _, err = space.ReadDocumentStaged(id, memoUserID(i), singleCut{cache})
		} else {
			_, err = cache.Read(id, memoUserID(i))
		}
		if err != nil {
			return 0, 0, core.Stats{}, err
		}
		total += clk.Now().Sub(start)
	}
	return total / time.Duration(users), sharedRuns, cache.Stats(), nil
}

// RunPrefix measures E17: the cold fan-out miss storm under no
// memoization, the single-cut baseline, and the N-cut prefix pipeline.
// The claim under test: with overlapping personal chains, multi-cut
// executes the shared segment once per distinct prefix — not once per
// user — so the miss path's compute is sublinear in fan-out and the
// mean miss time beats the single-cut baseline by the shared segment's
// cost.
func RunPrefix(cfg PrefixConfig) (PrefixResult, error) {
	res := PrefixResult{Config: cfg}
	for _, users := range cfg.Users {
		fullMiss, _, _, err := runPrefixMode(cfg, users, prefixOff)
		if err != nil {
			return res, err
		}
		singleMiss, singleRuns, _, err := runPrefixMode(cfg, users, prefixSingle)
		if err != nil {
			return res, err
		}
		multiMiss, multiRuns, st, err := runPrefixMode(cfg, users, prefixMulti)
		if err != nil {
			return res, err
		}
		row := PrefixRow{
			Users:            users,
			FullMiss:         fullMiss,
			SingleMiss:       singleMiss,
			MultiMiss:        multiMiss,
			SharedRunsSingle: singleRuns,
			SharedRunsMulti:  multiRuns,
			UniversalRuns:    st.UniversalStageRuns,
			PrefixHits:       st.PrefixHits,
		}
		if multiMiss > 0 {
			row.SpeedupVsSingle = float64(singleMiss) / float64(multiMiss)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
