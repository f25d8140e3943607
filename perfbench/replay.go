package main

import (
	"fmt"
	"time"

	"halfback/internal/metrics"
	"halfback/internal/netem"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// Per-operation costs come from replaying inputs captured in the traced
// run through each layer's public functions, with nothing else running.
// Each replay repeats until it has taken replayMinTime and reports the
// median of its repetitions.
const (
	replayMinTime = 300 * time.Millisecond
	replayMinReps = 3
)

func medianRep(rep func() float64) float64 {
	var vals []float64
	start := time.Now()
	for len(vals) < replayMinReps || time.Since(start) < replayMinTime {
		vals = append(vals, rep())
	}
	return metrics.Summarize(vals).Median()
}

// replaySim loads a bare scheduler with pending events and steps it,
// re-arming every fired event and cancelling-and-re-arming another one
// at the measured cancel ratio. It returns ns per executed event.
func replaySim(pending int, cancelRatio float64) float64 {
	if pending < 1 {
		pending = 1
	}
	const events = 500_000
	// Delays spread log-uniformly from 10 µs to 100 ms, the range of
	// serialization, propagation and pacing timers; drawn up front so
	// the loop measures the scheduler alone.
	rng := sim.NewRand(uint64(pending))
	var delays [4096]sim.Duration
	for i := range delays {
		delays[i] = sim.Duration(rng.LogUniform(1e4, 1e8))
	}
	type cell struct{ t sim.Timer }
	return medianRep(func() float64 {
		s := sim.NewScheduler()
		cells := make([]cell, pending)
		k, victim := 0, 0
		var cancelDebt float64
		next := func() sim.Duration {
			k = (k + 1) % len(delays)
			return delays[k]
		}
		var fire sim.EventFunc
		fire = func(now sim.Time, arg any) {
			c := arg.(*cell)
			c.t = s.AfterFunc(next(), fire, c)
			if cancelDebt += cancelRatio; cancelDebt >= 1 {
				cancelDebt--
				victim = (victim + 7) % pending
				v := &cells[victim]
				v.t.Stop()
				v.t = s.AfterFunc(next(), fire, v)
			}
			if s.Processed >= events {
				s.Stop()
			}
		}
		for i := range cells {
			cells[i].t = s.AfterFunc(next(), fire, &cells[i])
		}
		t0 := time.Now()
		s.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(s.Processed)
	})
}

// replayNetem injects the captured packets, at their captured times,
// into a fresh copy of the universe's topology whose hosts discard
// deliveries. It returns ns per packet-hop, including the scheduler
// events the hops cause, and how many events each hop caused.
func replayNetem(caps []*capture, build func(*spec) (*netem.Network, *sim.Scheduler, []*netem.Node)) (nsPerHop, eventsPerHop float64) {
	discard := func(*netem.Packet, sim.Time) {}
	nsPerHop = medianRep(func() float64 {
		var ns, events float64
		var hops int64
		for _, cp := range caps {
			if len(cp.packets) == 0 {
				continue
			}
			net, sched, hosts := build(cp.sp)
			for _, h := range hosts {
				h.Deliver = discard
			}
			next := 0
			var inject sim.EventFunc
			inject = func(now sim.Time, _ any) {
				for next < len(cp.packets) && cp.packets[next].At <= now {
					p := net.NewPacket()
					*p = cp.packets[next].Pkt
					net.Inject(p, now)
					next++
				}
				if next < len(cp.packets) {
					sched.AtFunc(cp.packets[next].At, inject, nil)
				}
			}
			sched.AtFunc(cp.packets[0].At, inject, nil)
			t0 := time.Now()
			sched.Run()
			ns += float64(time.Since(t0).Nanoseconds())
			events += float64(sched.Processed)
			for _, l := range net.Links() {
				hops += l.Stats.Transmitted
			}
		}
		eventsPerHop = safeDiv(events, float64(hops))
		return safeDiv(ns, float64(hops))
	})
	return nsPerHop, eventsPerHop
}

// replayTransport feeds each captured sender-side stream through a
// fresh Scoreboard and AckValidator, exactly as the connection does:
// NoteSend for every DATA segment, Check/Update/Commit for every ACK
// until the flow is fully acknowledged. It returns ns per ACK and fails
// if the validator flags an ACK the live connection accepted.
func replayTransport(caps []*capture) (float64, error) {
	var flagged error
	ns := medianRep(func() float64 {
		var acks int64
		t0 := time.Now()
		for _, cp := range caps {
			n, err := cp.replayStreams()
			acks += n
			if err != nil {
				flagged = err
			}
		}
		return safeDiv(float64(time.Since(t0).Nanoseconds()), float64(acks))
	})
	return ns, flagged
}

// replayStreams replays every captured flow once and returns how many
// ACKs it processed.
func (cp *capture) replayStreams() (acks int64, err error) {
	for _, id := range cp.order {
		n, ok := cp.segs[id]
		if !ok {
			continue
		}
		sb := transport.NewScoreboard(n)
		var v transport.AckValidator
		v.Init(id)
		var sent int64
		stream := cp.streams[id]
		for i := range stream {
			p := &stream[i]
			if p.Kind == netem.KindData {
				sb.NoteSend(p.Seq, p.Retransmit)
				sent++
				continue
			}
			if sb.AllAcked() {
				break
			}
			acks++
			if cls := v.Check(sb, p, sent); cls != transport.MisbehaviorNone {
				err = fmt.Errorf("transport replay: flow %d ACK flagged %v", id, cls)
				continue
			}
			sb.Update(p)
			v.Commit(sb)
		}
	}
	return acks, err
}
