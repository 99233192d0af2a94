package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/thermal"
)

// batchDriver advances K engines in lockstep: per tick it runs every
// engine's pre-thermal phase, fuses the K implicit-Euler solves into
// one thermal.TransientBatch panel solve, then runs every post-thermal
// phase. All per-tick state (the destination and power slice headers
// included) is wired at construction, so the lockstep tick performs no
// heap allocations — the same contract the sequential engine tick
// keeps.
type batchDriver struct {
	engines []*Engine
	batch   *thermal.TransientBatch
	dsts    [][]float64
	powers  [][]float64
	nTicks  int
}

// newBatchDriver wraps already-constructed engines into a lockstep
// driver. It returns thermal.ErrNotBatchable when the engines cannot
// share a panel solve (different factorizations — i.e. different
// stacks, parameters, or time steps — or mismatched tick counts); the caller then falls back to running each
// engine sequentially, which is always equivalent.
func newBatchDriver(engines []*Engine) (*batchDriver, error) {
	nTicks := engines[0].nTicks
	trs := make([]*thermal.Transient, len(engines))
	for i, e := range engines {
		if e.nTicks != nTicks {
			return nil, fmt.Errorf("%w: run %d has %d ticks, run 0 has %d", thermal.ErrNotBatchable, i, e.nTicks, nTicks)
		}
		trs[i] = e.tr
	}
	batch, err := thermal.NewTransientBatch(trs)
	if err != nil {
		return nil, err
	}
	d := &batchDriver{
		engines: engines,
		batch:   batch,
		dsts:    make([][]float64, len(engines)),
		powers:  make([][]float64, len(engines)),
		nTicks:  nTicks,
	}
	for i, e := range engines {
		d.dsts[i] = e.nodeTemps
		d.powers[i] = e.blockPower
	}
	return d, nil
}

// tick advances every engine by one sampling interval through one
// panel solve.
func (d *batchDriver) tick(tick int) error {
	for _, e := range d.engines {
		if err := e.tickPre(tick); err != nil {
			return err
		}
	}
	if err := d.batch.StepInto(d.dsts, d.powers); err != nil {
		return err
	}
	for _, e := range d.engines {
		if err := e.tickPost(tick); err != nil {
			return err
		}
	}
	return nil
}

// RunBatch executes K co-scheduled simulations in lockstep, fusing
// their per-tick thermal solves into one blocked panel solve over the
// shared factorization (runs over the same stack geometry, parameters,
// and tick length share one automatically). Each run keeps
// its own engine — policy, scheduler, power model, metrics,
// reliability tracking, and every TickDecision stay fully independent —
// so the results are bitwise identical to calling Run on each config
// individually; only the number of triangular-solve traversals per tick
// changes. Configs whose runs cannot share a factorization (mixed
// stacks or parameters, differing durations) fall
// back to sequential execution transparently.
//
// The configs' contexts are polled per tick as in Run; the first
// error or cancellation aborts the whole batch, consistent with a
// sweep treating its group as one unit of work.
func RunBatch(cfgs []Config) ([]*Result, error) {
	engines := make([]*Engine, len(cfgs))
	for i := range cfgs {
		e, err := newEngine(cfgs[i])
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return runEngineBatch(engines)
}

// RunBatchContext is RunBatch with one context governing every run in
// the batch, polled per tick like RunContext.
func RunBatchContext(ctx context.Context, cfgs []Config) ([]*Result, error) {
	if ctx != nil {
		// Copy before rewriting the context: the caller's configs stay
		// untouched.
		cp := make([]Config, len(cfgs))
		copy(cp, cfgs)
		for i := range cp {
			cp[i].ctx = ctx
		}
		cfgs = cp
	}
	return RunBatch(cfgs)
}

// runEngineBatch drives built engines to completion, batched when
// possible and sequentially otherwise.
func runEngineBatch(engines []*Engine) ([]*Result, error) {
	results := make([]*Result, len(engines))
	if len(engines) == 0 {
		return results, nil
	}
	if len(engines) == 1 {
		// A single lane gains nothing from the panel path; the
		// sequential engine loop is the same arithmetic.
		res, err := engines[0].run()
		if err != nil {
			return nil, err
		}
		results[0] = res
		return results, nil
	}
	d, err := newBatchDriver(engines)
	if errors.Is(err, thermal.ErrNotBatchable) {
		for i, e := range engines {
			res, err := e.run()
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	if err != nil {
		return nil, err
	}
	for tick := 0; tick < d.nTicks; tick++ {
		if err := d.tick(tick); err != nil {
			return nil, err
		}
	}
	for i, e := range engines {
		if e.trace != nil {
			if err := e.trace.flush(); err != nil {
				return nil, err
			}
		}
		results[i] = e.finish()
	}
	return results, nil
}
