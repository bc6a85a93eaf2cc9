// Package netsim is a flow-level network simulator on top of the
// discrete-event kernel. Flows between cluster workers share link
// capacity max-min fairly (progressive filling), recomputed whenever a
// flow starts, a flow finishes, or link capacities change.
//
// It replaces the paper's physical Mellanox fabric: PipeDream's planner
// assumes a hierarchical topology with uniform per-level bandwidth and
// all-reduce collectives, and the paper's point is that reality —
// heterogeneous, fluctuating, possibly parameter-server-based — diverges
// from that model. This package provides the reality; the planner keeps
// its simplifying assumptions.
package netsim

import (
	"math"
	"sort"
	"strings"

	"autopipe/internal/cluster"
	"autopipe/internal/sim"
)

// Flow is one in-flight transfer.
type Flow struct {
	ID       uint64
	Name     string
	Src, Dst int
	// Weight is the flow's share weight in the weighted max-min
	// allocation (1 by default). Communication scheduling à la
	// ByteScheduler gives latency-sensitive pipeline transfers more
	// weight than bulk gradient syncs.
	Weight float64
	// remaining and original bits
	remaining float64
	origBits  float64
	rate      float64 // bits/sec, assigned by the fair-share computation
	route     route
	done      func()
	started   sim.Time
	// requested is when the caller asked for the transfer — before any
	// propagation or queueing delay. Completion records measure from
	// here: that is the latency the job's transport layer experiences.
	requested sim.Time
	// background marks cross-traffic flows (see CrossTraffic); consumers
	// estimating the job's own bandwidth must ignore them.
	background bool
	// stalled flows hold their state but receive no bandwidth and never
	// finish (fault injection); CancelFlow removes them like any other.
	stalled bool
	// active is true while the flow is registered with the network.
	active bool
}

// Stalled reports whether the flow has been fault-stalled.
func (f *Flow) Stalled() bool { return f.stalled }

// Remaining returns the flow's remaining bits (for tests/inspection).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's current bits/sec share.
func (f *Flow) Rate() float64 { return f.rate }

// Links are addressed by a dense index computed from the topology:
// server s owns its uplink 3s, downlink 3s+1 and intra-server path
// 3s+2; after all servers, rack r owns its core uplink 3S+2r and core
// downlink 3S+2r+1. A cluster of S servers and R racks has 3S+2R links.
const linksPerServer = 3

// linkKind names a link's role. The three per-server kinds double as
// the offsets within a server's block of the dense index.
type linkKind uint8

const (
	linkUp linkKind = iota
	linkDown
	linkIntra
	linkRackUp
	linkRackDown
)

// route is a flow's path as dense link indices: one intra-server link,
// or uplink + downlink plus, across racks, the two core links.
type route struct {
	links [4]int32
	n     uint8
}

func (r *route) slice() []int32 { return r.links[:r.n] }

// Network simulates all flows of the measured job over the cluster.
type Network struct {
	eng *sim.Engine
	cl  *cluster.Cluster

	// flows holds the in-flight flows in ascending ID order. IDs only
	// grow, so injection appends and removal compacts; every walk —
	// and with it the progressive-filling freeze order and the
	// completion-callback order — is deterministic.
	flows      []*Flow
	nextID     uint64
	lastUpdate sim.Time
	completion *sim.Event
	// onCompletion is the completion-event callback, bound once.
	onCompletion func()

	// Solver scratch, reused across recomputes so a steady state
	// allocates nothing: per-link state by dense index, the links the
	// last recompute touched, the unfrozen flows, the finished flows.
	links    []linkState
	touched  []int32
	unfrozen []*Flow
	finished []*Flow

	// TotalBitsDelivered accumulates finished-flow volume (telemetry).
	TotalBitsDelivered float64

	// PerHopLatencySec adds a fixed propagation/processing delay per
	// link hop before a flow's data starts moving (0 = pure fluid
	// model, the default). Chatty protocols — e.g. ring all-reduce's
	// 2(N−1) barriered steps — pay it on every step.
	PerHopLatencySec float64

	// fault, when set, is consulted once per injected flow (see
	// SetFaultInjector).
	fault func(src, dst int, name string) FlowFault

	// queue, when non-nil, enables the per-link queueing model (see
	// EnableQueueing in congestion.go): contended links accumulate
	// bounded drain-queue delay that newly injected flows wait out
	// before their data starts moving.
	queue *queueModel

	// observers receive a FlowRecord for every completed transfer (see
	// AddFlowObserver in congestion.go).
	observers []func(FlowRecord)
}

// linkState is one link's progressive-filling state.
type linkState struct {
	cap      float64
	frozen   float64 // load of frozen flows
	unfrozen float64 // total weight of unfrozen flows
	count    int     // active flows traversing the link; 0 = untouched
}

// FlowFault is a fault injector's verdict on a starting flow.
type FlowFault uint8

// Flow fault verdicts.
const (
	// FaultNone lets the flow proceed normally.
	FaultNone FlowFault = iota
	// FaultStall registers the flow but pins its rate to zero: it holds
	// its links' bookkeeping slot and never finishes unless cancelled —
	// the lost-transport failure mode a switch watchdog must detect.
	FaultStall
	// FaultDrop silently discards the flow: it is never registered and
	// its completion callback never fires — a transfer into a dead host.
	FaultDrop
)

// SetFaultInjector installs fn, consulted once per flow at injection
// time (nil disables). Local (same-worker or zero-byte) transfers bypass
// the fair-share allocator entirely and therefore also bypass fault
// injection.
func (n *Network) SetFaultInjector(fn func(src, dst int, name string) FlowFault) {
	n.fault = fn
}

// StallMatching fault-stalls every in-flight flow whose name contains
// substr and returns how many it hit. Stalled flows keep their remaining
// volume but receive no bandwidth until cancelled.
func (n *Network) StallMatching(substr string) int {
	n.advance()
	hit := 0
	for _, f := range n.flows {
		if !f.stalled && strings.Contains(f.Name, substr) {
			f.stalled = true
			hit++
		}
	}
	n.reschedule()
	return hit
}

// EstimateSeconds returns the contention-free transfer time of bytes
// from src to dst at current link capacities — the deadline basis for
// migration watchdogs, not a throughput prediction. A fully throttled
// route falls back to 1 Gbps so deadlines stay finite.
func (n *Network) EstimateSeconds(src, dst int, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	if src == dst {
		return float64(bytes*8) / (n.cl.IntraServerBwBps * 4)
	}
	min := math.Inf(1)
	r := n.route(src, dst)
	for _, l := range r.slice() {
		if c := n.capacity(l); c < min {
			min = c
		}
	}
	if min <= 0 || math.IsInf(min, 1) {
		min = 1e9
	}
	return float64(bytes*8) / min
}

// New creates a network bound to an engine and a cluster. The
// cluster's server and rack counts fix the link index space.
func New(eng *sim.Engine, cl *cluster.Cluster) *Network {
	n := &Network{eng: eng, cl: cl}
	n.links = make([]linkState, linksPerServer*len(cl.Servers)+2*cl.Racks)
	n.onCompletion = func() {
		n.completion = nil
		n.advance()
		n.reschedule()
	}
	return n
}

// link decodes a dense link index into its kind and its server (NIC
// and intra links) or rack (core links).
func (n *Network) link(l int32) (linkKind, int) {
	i := int(l)
	if srv := linksPerServer * len(n.cl.Servers); i >= srv {
		return linkRackUp + linkKind((i-srv)%2), (i - srv) / 2
	}
	return linkKind(i % linksPerServer), i / linksPerServer
}

// capacity returns the current capacity of a link in bits/sec.
func (n *Network) capacity(l int32) float64 {
	switch kind, id := n.link(l); kind {
	case linkIntra:
		return n.cl.IntraServerBwBps
	case linkRackUp, linkRackDown:
		return n.cl.RackUplinkBps
	default:
		return n.cl.Servers[id].AvailBwBps()
	}
}

// route returns the links a src→dst flow traverses: the intra-server
// path, or source uplink + destination downlink, plus — in the two-tier
// topology — the rack core uplinks when the endpoints sit under
// different leaf switches. A same-worker transfer has an empty route.
func (n *Network) route(src, dst int) route {
	var r route
	if src == dst {
		return r
	}
	sa, sb := n.cl.GPUs[src].Server, n.cl.GPUs[dst].Server
	if sa == sb {
		r.links[0], r.n = int32(linksPerServer*sa+int(linkIntra)), 1
		return r
	}
	r.links[0] = int32(linksPerServer*sa + int(linkUp))
	r.links[1] = int32(linksPerServer*sb + int(linkDown))
	r.n = 2
	if n.cl.Racks > 1 {
		ra, rb := n.cl.Servers[sa].Rack, n.cl.Servers[sb].Rack
		if ra != rb {
			racks := linksPerServer * len(n.cl.Servers)
			r.links[2] = int32(racks + 2*ra)
			r.links[3] = int32(racks + 2*rb + 1)
			r.n = 4
		}
	}
	return r
}

// StartFlow begins transferring bytes from src to dst and invokes done
// (may be nil) when the last bit arrives. Zero-byte and same-worker flows
// complete after a negligible local-copy delay.
func (n *Network) StartFlow(src, dst int, bytes int64, name string, done func()) *Flow {
	return n.startFlow(src, dst, bytes, 1, name, false, done)
}

// StartWeightedFlow is StartFlow with an explicit share weight: on a
// congested link a weight-w flow receives w times the bandwidth of a
// weight-1 flow (weighted max-min fairness). Weights ≤ 0 are treated
// as 1.
func (n *Network) StartWeightedFlow(src, dst int, bytes int64, weight float64, name string, done func()) *Flow {
	return n.startFlow(src, dst, bytes, weight, name, false, done)
}

// startFlow is the shared entry for job and background flows. A flow
// first waits out any fixed propagation delay plus the route's current
// queueing delay, then enters the fair-share allocator.
func (n *Network) startFlow(src, dst int, bytes int64, weight float64, name string, background bool, done func()) *Flow {
	if bytes <= 0 || src == dst {
		latency := sim.Time(float64(bytes*8) / (n.cl.IntraServerBwBps * 4))
		n.eng.After(latency, name+"/local", func() {
			if done != nil {
				done()
			}
		})
		return nil
	}
	if weight <= 0 {
		weight = 1
	}
	requested := n.eng.Now()
	r := n.route(src, dst)
	wait := n.PerHopLatencySec * float64(r.n)
	if n.queue != nil {
		wait += n.queue.routeDelay(&r)
	}
	if wait > 0 {
		n.eng.After(sim.Time(wait), name+"/prop", func() {
			n.injectFlow(src, dst, bytes, weight, name, requested, background, done)
		})
		return nil
	}
	return n.injectFlow(src, dst, bytes, weight, name, requested, background, done)
}

// injectFlow registers the flow with the fair-share allocator.
func (n *Network) injectFlow(src, dst int, bytes int64, weight float64, name string, requested sim.Time, background bool, done func()) *Flow {
	var fault FlowFault
	if n.fault != nil {
		fault = n.fault(src, dst, name)
	}
	if fault == FaultDrop {
		return nil
	}
	n.advance()
	f := &Flow{
		ID:         n.nextID,
		Name:       name,
		Src:        src,
		Dst:        dst,
		Weight:     weight,
		remaining:  float64(bytes * 8),
		origBits:   float64(bytes * 8),
		route:      n.route(src, dst),
		done:       done,
		started:    n.eng.Now(),
		requested:  requested,
		background: background,
		stalled:    fault == FaultStall,
		active:     true,
	}
	n.nextID++
	n.flows = append(n.flows, f)
	n.reschedule()
	return f
}

// CancelFlow aborts an in-flight flow without firing its callback.
func (n *Network) CancelFlow(f *Flow) {
	if f == nil || !f.active {
		return
	}
	n.advance()
	i := sort.Search(len(n.flows), func(i int) bool { return n.flows[i].ID >= f.ID })
	copy(n.flows[i:], n.flows[i+1:])
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	f.active = false
	n.reschedule()
}

// OnCapacityChange must be called after mutating the cluster's bandwidth
// state so in-flight flows are re-shared.
func (n *Network) OnCapacityChange() {
	n.advance()
	n.reschedule()
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// advance progresses all flows' remaining volume to the current time
// using the rates assigned at the previous recompute.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := float64(now - n.lastUpdate)
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	if n.queue != nil {
		n.queue.advance(dt)
	}
}

// reschedule recomputes max-min fair rates and schedules the next flow
// completion.
func (n *Network) reschedule() {
	if n.completion != nil {
		n.eng.Cancel(n.completion)
		n.completion = nil
	}
	// Finish flows that have already drained (possibly several at once).
	// The threshold is one bit, widened by the time-ULP horizon: once a
	// flow's residual would complete within the float64 resolution of
	// the current clock, advancing time cannot drain it (dt rounds to
	// zero), so treat it as done to avoid a zero-progress event loop.
	// Finished flows leave n.flows in ID order, which is also the
	// callback order.
	now := float64(n.eng.Now())
	finished := n.finished[:0]
	kept := n.flows[:0]
	for _, f := range n.flows {
		thresh := 1.0
		if ulp := f.rate * now * 1e-15; ulp > thresh {
			thresh = ulp
		}
		if !f.stalled && f.remaining <= thresh {
			f.active = false
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	clear(n.flows[len(kept):])
	n.flows = kept
	if len(finished) > 0 {
		// Callbacks may start flows and so re-enter reschedule: the
		// nested call must not reuse the slice being walked here.
		n.finished = nil
		for _, f := range finished {
			n.TotalBitsDelivered += f.origBits
		}
		// Observers see every completion before any completion callback
		// runs, so an observer-driven estimator is up to date when the
		// callback reacts (e.g. starts the next dependent transfer).
		if len(n.observers) > 0 {
			for _, f := range finished {
				rec := n.record(f)
				for _, obs := range n.observers {
					obs(rec)
				}
			}
		}
		for _, f := range finished {
			if f.done != nil {
				f.done()
			}
		}
		clear(finished)
		n.finished = finished[:0]
		// Callbacks may have started new flows; recompute afresh.
		n.reschedule()
		return
	}
	n.finished = finished
	if len(n.flows) == 0 {
		return
	}
	n.computeRates()
	// Earliest completion among current flows.
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return // no capacity anywhere; stalled until OnCapacityChange
	}
	n.completion = n.eng.After(sim.Time(soonest), "netsim/completion", n.onCompletion)
}

// computeRates assigns weighted max-min fair rates via progressive
// filling: each link divides its residual capacity in proportion to the
// unfrozen flows' weights, and the flow with the smallest achievable
// per-weight share freezes first. Flows are visited in ID order, links
// by dense index; no maps, and no allocation once the scratch slices
// have grown to the working set.
func (n *Network) computeRates() {
	links := n.links
	for _, l := range n.touched {
		links[l] = linkState{}
	}
	touched := n.touched[:0]
	all := n.unfrozen[:0]
	for _, f := range n.flows {
		f.rate = 0
		if f.stalled {
			continue
		}
		for _, l := range f.route.slice() {
			ls := &links[l]
			if ls.count == 0 {
				ls.cap = n.capacity(l)
				touched = append(touched, l)
			}
			ls.unfrozen += f.Weight
			ls.count++
		}
		all = append(all, f)
	}
	n.touched = touched
	unfrozen := all
	for len(unfrozen) > 0 {
		// Bottleneck per-weight share across links carrying unfrozen
		// flows.
		min := math.Inf(1)
		for _, l := range touched {
			ls := &links[l]
			if ls.unfrozen <= 0 {
				continue
			}
			fair := (ls.cap - ls.frozen) / ls.unfrozen
			if fair < min {
				min = fair
			}
		}
		if math.IsInf(min, 1) {
			break
		}
		if min < 0 {
			min = 0
		}
		// Freeze every unfrozen flow traversing a bottleneck link at
		// weight × per-weight share; the rest stay, compacted in place.
		kept := unfrozen[:0]
		for _, f := range unfrozen {
			onBottleneck := false
			for _, l := range f.route.slice() {
				ls := &links[l]
				fair := (ls.cap - ls.frozen) / ls.unfrozen
				if fair <= min*(1+1e-12) {
					onBottleneck = true
					break
				}
			}
			if onBottleneck {
				n.freeze(f, min)
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(unfrozen) {
			// Numerical corner: freeze everything at min.
			for _, f := range unfrozen {
				n.freeze(f, min)
			}
			break
		}
		unfrozen = kept
	}
	clear(all)
	n.unfrozen = all[:0]
	if n.queue != nil {
		n.queue.beginEpoch()
		for _, l := range touched {
			ls := &links[l]
			util := 0.0
			if ls.cap > 0 {
				util = ls.frozen / ls.cap
			}
			n.queue.observeLoad(l, util, ls.count)
		}
	}
}

// freeze fixes f's rate at weight × per-weight share and charges it to
// the links it crosses.
func (n *Network) freeze(f *Flow, share float64) {
	f.rate = share * f.Weight
	for _, l := range f.route.slice() {
		ls := &n.links[l]
		ls.frozen += f.rate
		ls.unfrozen -= f.Weight
	}
}
