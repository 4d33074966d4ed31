// Corpus for the ctxflow analyzer. The package is named federation on
// purpose — the blocking-call rules engage on the attack, federation,
// and httpapi packages.
package federation

import (
	"context"
	"time"

	"lintdata/attack"
)

// ---- Queryable implementations ----

type goodBackend struct{}

// goodBackend threads ctx into its work.
func (g *goodBackend) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	default:
	}
	return 0, nil
}

type deafBackend struct{}

func (b *deafBackend) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) { // want `never uses ctx`
	return 0, nil
}

type blankBackend struct{}

func (b *blankBackend) PlanCountContext(_ context.Context, p attack.Plan) (int, error) { // want `discards its context`
	return 0, nil
}

// ---- blocking calls on cancellable paths ----

func badSleep(ctx context.Context, d time.Duration) {
	time.Sleep(d) // want `time.Sleep with a context in scope`
}

// The ctx stays lexically in scope inside nested literals.
func badSleepNested(ctx context.Context, d time.Duration) func() {
	return func() {
		time.Sleep(d) // want `time.Sleep with a context in scope`
	}
}

func goodSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// No context in scope: a plain sleep is fine.
func plainSleep(d time.Duration) {
	time.Sleep(d)
}

// A justified exception can be suppressed.
func suppressed(ctx context.Context, d time.Duration) {
	//dosvet:ignore ctxflow calibration pause, deliberately unconditional
	time.Sleep(d)
}
