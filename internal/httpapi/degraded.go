package httpapi

import (
	"context"

	"doscope/internal/attack"
)

// Degraded-results policy. By default the server serves whatever the
// healthy backends answer: a federated query that loses a site returns
// 200 with the surviving backends' merged result and a "degraded"
// field naming the casualties, instead of turning one dead site into a
// fleet-wide 502. WithStrict restores the all-or-nothing discipline
// for consumers that would rather fail than undercount.
//
// Degraded bodies are never written to — or served from — the
// version-vector response cache: the cache stores only whole answers.

// WithStrict selects the all-or-nothing failure discipline: any
// backend failure fails the request with 502, the pre-degraded-mode
// behavior. The default is degraded mode — partial results with
// per-backend status.
func WithStrict(strict bool) Option {
	return func(s *Server) { s.strict = strict }
}

// backendStatusJSON is one backend's outcome in a degraded response.
type backendStatusJSON struct {
	Backend int    `json:"backend"`
	State   string `json:"state"` // "ok", "failed", "skipped"
	Error   string `json:"error,omitempty"`
}

// degradedJSON is the "degraded" response field: present only when at
// least one backend did not contribute, so healthy responses are
// byte-identical to the pre-degraded-mode wire format.
type degradedJSON struct {
	Failed   int                 `json:"failed"`
	Skipped  int                 `json:"skipped"`
	Backends []backendStatusJSON `json:"backends"`
}

// degradedFrom renders fan-out statuses for the response body: nil —
// the field marshals away — unless some backend failed or was skipped.
func degradedFrom(statuses []attack.BackendStatus) *degradedJSON {
	if attack.StatusErr(statuses) == nil {
		return nil
	}
	d := &degradedJSON{Backends: make([]backendStatusJSON, len(statuses))}
	for i, st := range statuses {
		j := backendStatusJSON{Backend: st.Backend, State: st.State.String()}
		if st.Err != nil {
			j.Error = st.Err.Error()
		}
		switch st.State {
		case attack.BackendFailed:
			d.Failed++
		case attack.BackendSkipped:
			d.Skipped++
		}
		d.Backends[i] = j
	}
	return d
}

// mergeStatuses folds per-backend outcomes across the several fan-outs
// one endpoint may run (figure 1 executes three plans): a backend is
// only as healthy as its worst outcome.
func mergeStatuses(a, b []attack.BackendStatus) []attack.BackendStatus {
	if a == nil {
		return b
	}
	for i := range a {
		if i < len(b) && a[i].State == attack.BackendOK && b[i].State != attack.BackendOK {
			a[i].State, a[i].Err = b[i].State, b[i].Err
		}
	}
	return a
}

// query starts a fan-out of one plan over the server's backends, bounded
// by the request context — a hung site costs the caller its deadline,
// not forever.
func (s *Server) query(ctx context.Context, p attack.Plan) *attack.FedQuery {
	return attack.QueryPlan(p, s.backends...).Context(ctx)
}

// verdict applies the server's failure discipline to one fan-out's
// outcome: strict mode fails on any backend that did not answer (the
// caller 502s), degraded mode only when no backend answered.
func (s *Server) verdict(statuses []attack.BackendStatus, err error) error {
	if s.strict {
		err = attack.StatusErr(statuses)
	}
	return err
}
