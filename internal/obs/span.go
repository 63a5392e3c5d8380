package obs

// SpanEvent builds one causal span event. at is the pass's simulated
// epoch time, passID its pass correlation ID, node the emitting (or
// targeted) cluster node, name/parent the span's position in the
// per-pass tree, and durS the measured wall-clock duration in seconds.
//
// Producers must emit spans only behind their `sink != nil` guard: span
// construction allocates the event's JSON rendering downstream, and the
// no-sink hot path's zero-allocation guarantee (TestScheduleZeroAlloc;
// bench/ trends it as fvsst.schedule_allocs) covers the guard, not the
// emission.
func SpanEvent(at float64, passID uint64, node, name, parent string, durS float64) Event {
	return Event{
		Type:   EventSpan,
		At:     at,
		Node:   node,
		PassID: passID,
		Span:   name,
		Parent: parent,
		DurS:   durS,
	}
}

// RPCSpanEvent builds one rpc:* span with the per-node latency
// breakdown: queueS from pass start to the request's first send, wireS
// the measured round-trip minus the agent's reported service time, and
// applyS the agent-side service (for actuations: apply) time.
func RPCSpanEvent(at float64, passID uint64, node, name string, durS, queueS, wireS, applyS float64) Event {
	e := SpanEvent(at, passID, node, name, SpanPass, durS)
	e.QueueS = queueS
	e.WireS = wireS
	e.ApplyS = applyS
	return e
}
