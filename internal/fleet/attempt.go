package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// The router's one way to talk to replicas. Every route describes its
// replica request as a call, every attempt is classified by one outcome
// rule, and every route walks its candidates with one failover loop:
// /predict over every shard's replicas, the shard-owned routes over one
// shard's.

// call is one replica request, replayable against any candidate.
type call struct {
	method, path, rawQuery string
	body                   []byte
	contentType, accept    string
}

// outcome classifies one replica attempt.
type outcome uint8

const (
	// outFailed: transport error, unreadable body, or any answer the
	// other outcomes do not cover (5xx without Retry-After). Retry a
	// sibling; it counts against the replica.
	outFailed outcome = iota
	// outOK: a 200 to serve.
	outOK
	// outBusy: 503 or 429 with Retry-After — a live replica shedding
	// load or out of queue room. Retry a sibling; the breaker stays out
	// of it.
	outBusy
	// outDefinitive: any other 4xx, the answer every replica would give.
	// Forward it.
	outDefinitive
	// outCancelled: the router gave up on the attempt (the client left,
	// or another attempt already answered). Nobody's fault.
	outCancelled
)

// outcomeLabels are the fleet_attempts_total outcome label values.
var outcomeLabels = [...]string{
	outFailed:     "error",
	outOK:         "success",
	outBusy:       "shed",
	outDefinitive: "success",
	outCancelled:  "cancelled",
}

// maxReplyBytes bounds how much of one replica answer the router reads.
const maxReplyBytes = 16 << 20

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	cand   candidate
	out    outcome
	status int
	body   []byte
	header http.Header
	err    error
}

// classify applies the outcome rule to a replica's answer.
func classify(status int, header http.Header) outcome {
	switch {
	case status == http.StatusOK:
		return outOK
	case (status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests) &&
		header.Get("Retry-After") != "":
		return outBusy
	case status >= 400 && status < 500:
		return outDefinitive
	}
	return outFailed
}

// attempt sends c to one candidate, bounded by the attempt timeout, and
// books the outcome: the breaker and replica state hear about failures
// and successes, never about busy answers or attempts cancelled through
// ctx.
func (rt *Router) attempt(ctx context.Context, cand candidate, c call) attemptResult {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	url := cand.rep.URL + c.path
	if c.rawQuery != "" {
		url += "?" + c.rawQuery
	}
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	res := attemptResult{cand: cand}
	req, err := http.NewRequestWithContext(actx, c.method, url, body)
	if err == nil {
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		var resp *http.Response
		if resp, err = rt.client.Do(req); err == nil {
			res.status, res.header = resp.StatusCode, resp.Header
			res.body, err = io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
			resp.Body.Close()
		}
	}
	res.err = err
	switch {
	case err != nil && ctx.Err() != nil:
		res.out = outCancelled
	case err != nil:
		// Unreachable, stalled or cut off mid-answer. Mark it down now
		// instead of waiting a probe period; the prober promotes it back
		// the moment it answers a /healthz.
		res.out = outFailed
		cand.rep.bk.failure()
		cand.rep.setState(StateDown)
	default:
		res.out = classify(res.status, res.header)
		switch res.out {
		case outOK, outDefinitive:
			cand.rep.bk.success()
		case outFailed:
			cand.rep.bk.failure()
		}
	}
	rt.m.attempts.With(outcomeLabels[res.out]).Inc()
	return res
}

// errNoReplicas is the walk's answer for an empty candidate list.
var errNoReplicas = errors.New("no replicas")

// failover walks cands until one attempt answers ok or definitive and
// returns that result; otherwise the last result, once every candidate
// has been tried. busy reports whether any replica answered busy, so the
// caller can tell a saturated fleet from a dead one. Failures and busy
// answers move to the next candidate behind capped, jittered backoff.
// GET calls also hedge: an attempt still running after HedgeDelay gets
// a concurrent one at the next candidate. Other methods never run two
// attempts at once — a POST is not sent twice in parallel. Attempts
// still running when the walk returns are cancelled, and so are all of
// them when ctx ends.
func (rt *Router) failover(ctx context.Context, cands []candidate, c call) (res attemptResult, busy bool) {
	if len(cands) == 0 {
		return attemptResult{err: errNoReplicas}, false
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One slot per candidate: each sends at most once, so attempts still
	// running when the walk returns finish without a reader.
	results := make(chan attemptResult, len(cands))
	next, inFlight := 0, 0
	launch := func() {
		cand := cands[next]
		next++
		inFlight++
		go func() { results <- rt.attempt(ctx, cand, c) }()
	}
	launch()

	var hedge, retry *time.Timer
	var hedgeC, retryC <-chan time.Time
	if c.method == http.MethodGet {
		hedge = time.NewTimer(rt.cfg.HedgeDelay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	defer func() {
		if retry != nil {
			retry.Stop()
		}
	}()
	delay := rt.cfg.RetryBase
	for {
		select {
		case <-ctx.Done():
			return attemptResult{out: outCancelled, err: ctx.Err()}, busy
		case <-hedgeC:
			if next < len(cands) {
				launch()
				rt.m.hedges.Inc()
				hedge.Reset(rt.cfg.HedgeDelay)
			}
		case <-retryC:
			retryC = nil
			if next < len(cands) {
				launch()
			}
		case res = <-results:
			inFlight--
			switch res.out {
			case outOK:
				if res.cand.rep != cands[0].rep {
					rt.m.failovers.Inc()
				}
				return res, busy
			case outDefinitive, outCancelled:
				return res, busy
			case outBusy:
				busy = true
			}
			if next < len(cands) {
				if retryC == nil {
					// The retry timer is only ever re-armed after it fired
					// and was received, so Reset is safe.
					if retry == nil {
						retry = time.NewTimer(rt.jitter(delay))
					} else {
						retry.Reset(rt.jitter(delay))
					}
					retryC = retry.C
					if delay *= 2; delay > rt.cfg.RetryMax {
						delay = rt.cfg.RetryMax
					}
				}
			} else if inFlight == 0 {
				return res, busy
			}
		}
	}
}
