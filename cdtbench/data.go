package main

// Input generation. Every input is a pure function of the run's seed:
// the training data, the scoring data and the search seed each draw
// from their own sub-seed, so the data a model is trained on is never
// the data it scores.

import (
	"encoding/json"
	"strconv"

	cdt "cdt"
	"cdt/internal/datasets/sge"
	"cdt/internal/datasets/yahoo"
)

// Sub-seed streams derived from the run seed.
const (
	trainStream = 1 + iota
	scoreStream
	searchStream
)

// subSeed derives an independent seed for one input stream (splitmix64
// finalizer over seed and stream).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// modelOptions are the CDT hyper-parameters of every served model.
var modelOptions = cdt.Options{Omega: 5, Delta: 2}

// pyramidConfig is the batch-pyramid model shape: three scales, mean
// downsampling, weighted fusion whose weights TrainFusion learns (the
// threshold here only makes the hand-set starting point valid).
func pyramidConfig() cdt.PyramidConfig {
	return cdt.PyramidConfig{
		Factors:    []int{1, 4, 16},
		Aggregator: "mean",
		Fusion:     cdt.Fusion{Policy: cdt.FuseWeighted, Threshold: 1},
	}
}

// servedModelSeed seeds the training set of the models the serving
// workloads deploy. It is fixed: a run's seed varies the traffic a
// deployment receives, not the deployment. Resampling the model per
// seed moved the served work by ±15% (rule count and fire rate change
// the sweep and the response size), which swamped every serving-side
// difference the benchmark exists to show.
const servedModelSeed = 0

// trainingSeries is the SGE-calorie-like training set of the served
// models (paper anomaly rate 1.75%).
func trainingSeries(sensors, days int) []*cdt.Series {
	return sge.Calorie(sge.CalorieOptions{Sensors: sensors, Days: days, Seed: subSeed(servedModelSeed, trainStream)}).Series
}

// scoringSeries is the SGE-calorie-like data the stream workload pushes.
func scoringSeries(seed int64, sensors, days int) []*cdt.Series {
	return sge.Calorie(sge.CalorieOptions{Sensors: sensors, Days: days, Seed: subSeed(seed, scoreStream)}).Series
}

// searchCorpora returns the Yahoo-A1-like training and validation
// series of the train-optimize workload's i-th search problem.
func searchCorpora(seed int64, i int, sz trainSizes) (train, validation []*cdt.Series) {
	train = yahoo.A1(yahoo.Options{Files: sz.trainFiles, Points: sz.points, Seed: subSeed(subSeed(seed, trainStream), uint64(i))}).Series
	validation = yahoo.A1(yahoo.Options{Files: sz.valFiles, Points: sz.points, Seed: subSeed(subSeed(seed, scoreStream), uint64(i))}).Series
	return train, validation
}

// wireSeries and wireBatch mirror the batch-detect request body.
type wireSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

type wireBatch struct {
	Series []wireSeries `json:"series"`
}

// wirePoints mirrors the stream-push request body.
type wirePoints struct {
	Points []float64 `json:"points"`
}

// batchBody generates request body b: perBody SGE-calorie-like series
// of the given length, from its own scoring sub-seed, encoded as
// json.Marshal emits them (shortest round-trip floats, mostly 16–17
// significant digits).
func batchBody(seed int64, b, perBody, points int) (wireBatch, []byte, error) {
	opts := sge.CalorieOptions{Sensors: perBody, Days: points, Seed: subSeed(subSeed(seed, scoreStream), uint64(b))}
	var req wireBatch
	for _, s := range sge.Calorie(opts).Series {
		req.Series = append(req.Series, wireSeries{Name: s.Name, Values: s.Values})
	}
	body, err := json.Marshal(req)
	return req, body, err
}

// significantDigits counts the significant digits of v's shortest
// round-trip decimal form — the digits a JSON number for v carries.
func significantDigits(v float64) int {
	s := strconv.FormatFloat(v, 'e', -1, 64)
	n := 0
	for i := 0; i < len(s) && s[i] != 'e'; i++ {
		if s[i] >= '0' && s[i] <= '9' {
			n++
		}
	}
	return n
}

// shortFloats counts the values with at most 15 significant digits: the
// numbers a short-mantissa decode fast path could take.
func shortFloats(values []float64) int {
	n := 0
	for _, v := range values {
		if significantDigits(v) <= 15 {
			n++
		}
	}
	return n
}
