package main

import (
	"fmt"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/wire"
)

// channelOf names the collection channel an element kind is read
// through, as agent.Build wires it.
func channelOf(k core.ElementKind) string {
	switch k {
	case core.KindPNIC, core.KindTUN, core.KindVNIC:
		return "netdev"
	case core.KindPCPUBacklog, core.KindVCPUBacklog:
		return "softnet"
	case core.KindVSwitch:
		return "ovs"
	case core.KindHypervisorIO:
		return "qemu_log"
	default:
		return "direct"
	}
}

var channels = []string{"netdev", "softnet", "ovs", "qemu_log", "direct"}

// probeNames are the spans of the prober's direct layer calls.
var probeNames = []string{
	"agent.fetch", "agent.fetch.netdev", "agent.fetch.softnet", "agent.fetch.ovs",
	"agent.fetch.qemu_log", "agent.fetch.direct",
	"wire.encode", "wire.decode", "wire.encode_fresh", "wire.decode_fresh",
}

// prober makes the traced run's direct calls into the agent and wire
// layers: Agent.Fetch of the full inventory and of each element, and
// V2Codec Encode/Decode of the captured response with a fresh and with
// a warmed delta codec pair.
type prober struct {
	l     *lab
	kinds map[core.ElementID]core.ElementKind
	spans *spanLog
	turn  int
	warm  map[core.MachineID]*codecPair
}

type codecPair struct{ enc, dec *wire.V2Codec }

func newCodecPair() *codecPair {
	return &codecPair{enc: wire.NewV2Codec(true), dec: wire.NewV2Codec(true)}
}

// roundTrip encodes recs as one response frame and decodes it again.
func (p *codecPair) roundTrip(mid core.MachineID, recs []core.Record) (enc, dec time.Duration, size int, err error) {
	msg := &wire.Message{Type: wire.TypeResponse, ID: 1, Machine: mid, Records: recs}
	start := time.Now()
	payload, err := p.enc.Encode(msg)
	enc = time.Since(start)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("encode: %w", err)
	}
	size = len(payload)
	start = time.Now()
	got, err := p.dec.Decode(payload)
	dec = time.Since(start)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("decode: %w", err)
	}
	if len(got.Records) != len(recs) {
		return 0, 0, 0, fmt.Errorf("decode: %d records, want %d", len(got.Records), len(recs))
	}
	return enc, dec, size, nil
}

func newProber(l *lab, spans *spanLog) (*prober, error) {
	p := &prober{
		l: l, spans: spans,
		kinds: make(map[core.ElementID]core.ElementKind),
		warm:  make(map[core.MachineID]*codecPair),
	}
	for _, mid := range l.ids {
		recs, err := l.agents[mid].Fetch(nil, nil, true)
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", mid, err)
		}
		for _, r := range recs {
			p.kinds[r.Element] = r.Kind()
		}
		p.warm[mid] = newCodecPair()
		if _, _, _, err := p.warm[mid].roundTrip(mid, recs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probe times one round of agent and wire calls on the next machine in
// turn, under the given loop-step span. It returns the probe's errors.
func (p *prober) probe(parent uint64) error {
	mid := p.l.ids[p.turn%len(p.l.ids)]
	p.turn++
	a := p.l.agents[mid]

	start := time.Now()
	recs, err := a.Fetch(nil, nil, true)
	p.spans.add("agent.fetch", parent, start, time.Since(start), len(recs))
	if err != nil {
		return fmt.Errorf("fetch %s: %w", mid, err)
	}
	one := make([]core.ElementID, 1)
	for _, id := range a.Elements() {
		one[0] = id
		start := time.Now()
		_, err := a.Fetch(one, nil, false)
		p.spans.add("agent.fetch."+channelOf(p.kinds[id]), parent, start, time.Since(start), 1)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", id, err)
		}
	}

	for _, c := range []struct {
		suffix string
		pair   *codecPair
	}{{"_fresh", newCodecPair()}, {"", p.warm[mid]}} {
		start := time.Now()
		enc, dec, size, err := c.pair.roundTrip(mid, recs)
		if err != nil {
			return err
		}
		p.spans.add("wire.encode"+c.suffix, parent, start, enc, size)
		p.spans.add("wire.decode"+c.suffix, parent, start.Add(enc), dec, size)
	}
	return nil
}

// allocProbe measures allocations per call with nothing else running:
// a full-inventory Agent.Fetch, a warmed codec round trip, and a stretch
// of Cluster.Run. It advances the lab.
type allocCounts struct {
	fetchAllocs, fetchKB     float64
	wireAllocs               float64
	simAllocsPerTick         float64
	simAllocMBPerVirtualSec  float64
	simTicks, fetches, trips int
}

func (p *prober) allocProbe() (allocCounts, error) {
	const fetches, trips = 5, 5
	var ac allocCounts
	mid := p.l.ids[0]
	a := p.l.agents[mid]
	if _, err := a.Fetch(nil, nil, true); err != nil {
		return ac, err
	}
	before := memStats()
	for i := 0; i < fetches; i++ {
		if _, err := a.Fetch(nil, nil, true); err != nil {
			return ac, err
		}
	}
	after := memStats()
	ac.fetches = fetches
	ac.fetchAllocs = float64(after.Mallocs-before.Mallocs) / fetches
	ac.fetchKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / fetches

	pair := p.warm[mid]
	var mallocs uint64
	for i := 0; i < trips; i++ {
		p.l.c.Run(10 * time.Millisecond)
		recs, err := a.Fetch(nil, nil, true)
		if err != nil {
			return ac, err
		}
		before := memStats()
		if _, _, _, err := pair.roundTrip(mid, recs); err != nil {
			return ac, err
		}
		after := memStats()
		mallocs += after.Mallocs - before.Mallocs
	}
	ac.trips = trips
	ac.wireAllocs = float64(mallocs) / trips

	const simSpan = 200 * time.Millisecond
	before = memStats()
	p.l.c.Run(simSpan)
	after = memStats()
	ac.simTicks = int(simSpan / time.Millisecond)
	ac.simAllocsPerTick = float64(after.Mallocs-before.Mallocs) / float64(ac.simTicks)
	ac.simAllocMBPerVirtualSec = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / simSpan.Seconds()
	return ac, nil
}
