package main

import (
	"context"
	"fmt"
	"time"

	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// model is the quick policy every workload's keeper serves, trained the way
// ssdkeeperd self-trains when started without -model: a QuickScale dataset
// labelled by dataset.Generate, then experiments.TrainBest.
type model struct {
	prov   policy.Provider
	labelS float64 // dataset.Generate wall time
	trainS float64 // TrainBest wall time
}

func trainModel(ctx context.Context, env experiments.Env, seed int64) (model, error) {
	scale := experiments.QuickScale()
	scale.Seed = seed
	t0 := time.Now()
	samples, err := dataset.Generate(ctx, dataset.Config{
		Device:     env.Device,
		Options:    env.Options,
		Strategies: env.Strategies,
		Workloads:  scale.DatasetWorkloads,
		Requests:   scale.DatasetRequests,
		MaxIOPS:    env.SaturationIOPS,
		Season:     env.Season,
		Seed:       seed,
	}, nil)
	if err != nil {
		return model{}, fmt.Errorf("label quick dataset: %w", err)
	}
	t1 := time.Now()
	res, err := experiments.TrainBest(env, scale, samples)
	if err != nil {
		return model{}, fmt.Errorf("train quick model: %w", err)
	}
	t2 := time.Now()
	prov, err := policy.NewModel("perfbench", res.Model, env.Strategies)
	if err != nil {
		return model{}, err
	}
	return model{prov: prov, labelS: t1.Sub(t0).Seconds(), trainS: t2.Sub(t1).Seconds()}, nil
}

// keeperConfig is ssdkeeperd's default keeper: a 100ms window, re-adapting
// every 100ms, hybrid page allocation on, float64 inference.
func keeperConfig(env experiments.Env) keeper.Config {
	return keeper.Config{
		Device:         env.Device,
		Options:        env.Options,
		Strategies:     env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         sim.Time(100 * time.Millisecond),
		AdaptEvery:     sim.Time(100 * time.Millisecond),
		Hybrid:         true,
		Season:         env.Season,
	}
}

// The serving request stream: keeperload's four-tenant mix as bench.sh runs
// it (tenants round-robin, write ratios 0.9/0.1/0.8/0.2), 16 KiB requests
// at uniform page-aligned offsets over each tenant's 64 MiB space.
const (
	tenants     = 4
	reqBytes    = 16 << 10
	tenantBytes = 64 << 20
)

var writeRatios = [tenants]float64{0.9, 0.1, 0.8, 0.2}

// stream derives request id's I/O from the seed alone, so the same seed
// yields the same requests whatever order and concurrency they are issued
// with, and nothing is generated ahead of time.
type stream struct {
	seed     uint64
	pageSize int64
}

func newStream(seed int64, pageSize int) stream {
	return stream{seed: splitmix64(uint64(seed) ^ 0x5eed), pageSize: int64(pageSize)}
}

func (g stream) request(id uint64) serve.Request {
	h := splitmix64(g.seed ^ id)
	t := int(id % tenants)
	op := trace.Read
	if float64(h>>11)/(1<<53) < writeRatios[t] {
		op = trace.Write
	}
	pages := uint64((tenantBytes-reqBytes)/g.pageSize + 1)
	off := int64(splitmix64(h)%pages) * g.pageSize
	return serve.Request{Tenant: t, Op: op, Offset: off, Size: reqBytes, Key: id}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
