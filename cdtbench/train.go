package main

// The training ladder: the layers below cdt.OptimizeCorpus — the
// Corpus caches, core's rule mining, quality's scoring and bayesopt's
// surrogate — timed on Yahoo-A1-like search problems. It runs in
// batch-plain's traced run. No workload times a search end to end: a
// train-optimize workload did, and its figures followed the host's
// speed at twice the rate a fixed integer loop did, so two sets of its
// runs an hour apart disagreed by more than the benchmark's bound (see
// NOTES.md).

import (
	"time"

	cdt "cdt"
)

// trainSizes sizes the search problems.
type trainSizes struct {
	problems                     int // corpus pairs the ladder rotates over
	trainFiles, valFiles, points int
	initPoints, iterations       int
}

// defaultTrainSizes: one sequential search costs about 0.2 s on a 2-CPU
// VM; what it costs moves ±10% with its data, so the ladder rotates
// over eight problems.
var defaultTrainSizes = trainSizes{problems: 8, trainFiles: 12, valFiles: 6, points: 200, initPoints: 4, iterations: 6}

// searchProblem is one search's train and validation series.
type searchProblem struct{ train, val []*cdt.Series }

// searchOptions is the fixed small budget over a narrowed ω×δ box. The
// box has 5×2 cells, as many as the budget's evaluations, so every
// search trains each cell once, in a seed-dependent order: what a
// search costs then depends on the data, not on which cells the
// surrogate happened to pick.
func searchOptions(seed int64, sz trainSizes) cdt.OptimizeOptions {
	return cdt.OptimizeOptions{
		OmegaMin: 3, OmegaMax: 7,
		DeltaMin: 2, DeltaMax: 3,
		InitPoints: sz.initPoints, Iterations: sz.iterations,
		Seed: subSeed(seed, searchStream),
	}
}

func addStats(a, b cdt.CorpusStats) cdt.CorpusStats {
	return cdt.CorpusStats{
		LabelHits: a.LabelHits + b.LabelHits, LabelMisses: a.LabelMisses + b.LabelMisses,
		WindowHits: a.WindowHits + b.WindowHits, WindowMisses: a.WindowMisses + b.WindowMisses,
	}
}

// trainLadder times, per problem, the corpus builds and a sequential
// search (so the trials' own durations subtract from the search's wall
// time), then refits every trial's configuration on fresh corpora,
// timing the fit and the validation scoring apart. It runs every
// problem once, then goes on until the deadline.
func trainLadder(seed int64, sz trainSizes, rec *recorder, until time.Time) ([]metric, error) {
	problems := make([]searchProblem, sz.problems)
	for i := range problems {
		problems[i].train, problems[i].val = searchCorpora(seed, i, sz)
	}
	seq := searchOptions(seed, sz)
	seq.Parallelism = -1
	var trials []cdt.OptimizeTrial
	seq.Trace = func(t cdt.OptimizeTrial) { trials = append(trials, t) }
	var ops, fits, rules, models int
	var trialTime time.Duration
	var stats cdt.CorpusStats
	for op := int64(0); int(op) < len(problems) || time.Now().Before(until); op++ {
		p := problems[int(op)%len(problems)]
		trials = trials[:0]
		root := rec.begin("ladder", op, -1)
		sp := rec.begin("corpus.build", op, root)
		tc, err := cdt.NewCorpus(p.train)
		if err != nil {
			return nil, err
		}
		vc, err := cdt.NewCorpus(p.val)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("bayesopt.search", op, root)
		_, err = cdt.OptimizeCorpus(tc, vc, cdt.ObjectiveF1, seq)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		stats = addStats(stats, addStats(tc.Stats(), vc.Stats()))
		for _, t := range trials {
			trialTime += t.Elapsed
		}
		if tc, err = cdt.NewCorpus(p.train); err != nil {
			return nil, err
		}
		if vc, err = cdt.NewCorpus(p.val); err != nil {
			return nil, err
		}
		for _, t := range trials {
			opts := seq.Base
			opts.Omega, opts.Delta = t.Omega, t.Delta
			sp = rec.begin("core.fit", op, root)
			m, err := tc.Fit(opts)
			rec.end(sp)
			fits++
			if err != nil {
				continue
			}
			models++
			rules += m.NumRules()
			sp = rec.begin("quality.evaluate", op, root)
			_, err = m.EvaluateCorpus(vc)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
		rec.end(root)
		ops++
	}
	t := totals(rec)
	return []metric{
		{"corpus.build_ms_per_op", ms(t.sum("corpus.build")) / float64(ops), "ms"},
		{"core.fit_ms_per_trial", ms(t.sum("core.fit")) / float64(max(fits, 1)), "ms"},
		{"core.rules_per_model", float64(rules) / float64(max(models, 1)), "count"},
		{"quality.evaluate_ms_per_trial", ms(t.sum("quality.evaluate")) / float64(max(models, 1)), "ms"},
		{"bayesopt.surrogate_ms_per_op", ms(t.sum("bayesopt.search")-trialTime) / float64(ops), "ms"},
		{"bayesopt.trials_per_op", float64(fits) / float64(ops), "count"},
		{"corpus.label_hit_ratio", ratio(int(stats.LabelHits), int(stats.LabelHits+stats.LabelMisses)), "ratio"},
		{"corpus.window_hit_ratio", ratio(int(stats.WindowHits), int(stats.WindowHits+stats.WindowMisses)), "ratio"},
	}, nil
}
