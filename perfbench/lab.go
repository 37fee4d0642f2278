package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/anomaly"
	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/history"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
	"perfsight/internal/wire"
)

// tenant is the single tenant every element belongs to, named as the
// controller binary names it.
const tenant = core.TenantID("operator")

// labSpec is one generated lab: its size, the load offered to each sink
// VM and how its agents are reached.
type labSpec struct {
	Machines  int
	VMs       int           // sink VMs per machine, each fed by the machine's host source
	TCP       bool          // serve every agent on a loopback TCP listener
	WallClock bool          // agents stamp records with wall time instead of lab time
	Cadence   time.Duration // fixed push cadence; 0 leaves the default adaptive range
	Dir       string        // QEMU counter logs are written under here
}

// vmLoadBps is the load offered to every sink VM.
const vmLoadBps = 200e6

// lab is a simulated cluster plus one agent per machine, built as
// cmd/perfsight-agent builds its agent (sketch flow statistics; delta,
// spans and streaming granted).
type lab struct {
	c      *cluster.Cluster
	ids    []core.MachineID
	agents map[core.MachineID]*agent.Agent
	addrs  map[core.MachineID]string
	lns    []net.Listener
	served sync.WaitGroup
}

func buildLab(spec labSpec) (*lab, error) {
	l := &lab{
		c:      cluster.New(time.Millisecond),
		agents: make(map[core.MachineID]*agent.Agent),
		addrs:  make(map[core.MachineID]string),
	}
	for i := 0; i < spec.Machines; i++ {
		mid := core.MachineID(fmt.Sprintf("m%d", i))
		m := l.c.AddMachine(machine.DefaultConfig(mid))
		hostName := fmt.Sprintf("src%d", i)
		host := l.c.AddHost(hostName, 0)
		for v := 0; v < spec.VMs; v++ {
			vm := core.VMID(fmt.Sprintf("vm%d", v))
			sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), 2e9)
			l.c.PlaceVM(mid, vm, 1.0, 2e9, sink)
			conn := l.c.Connect(dataplane.FlowID(fmt.Sprintf("%s-%s", mid, vm)),
				cluster.HostEndpoint(hostName), cluster.VMEndpoint(mid, vm), stream.Config{})
			host.AddSource(conn, vmLoadBps)
		}
		if err := l.addAgent(spec, mid, m); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *lab) addAgent(spec labSpec, mid core.MachineID, m *machine.Machine) error {
	dir := filepath.Join(spec.Dir, string(mid))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("qemu log dir: %w", err)
	}
	opts := agent.BuildOptions{FlowStats: agent.FlowStatsSketch, QEMULogDir: dir}
	if !spec.WallClock {
		opts.Clock = l.c.NowNS
	}
	a, err := agent.Build(m, opts)
	if err != nil {
		return fmt.Errorf("build agent %s: %w", mid, err)
	}
	a.ReadTimeout = 2 * time.Minute
	a.MaxConns = 64
	a.Codec = wire.CodecV2
	a.AllowDelta = true
	a.AllowStream = true
	a.AllowSpans = true
	if spec.Cadence > 0 {
		a.CadenceMin, a.CadenceMax = spec.Cadence, spec.Cadence
	}
	l.ids = append(l.ids, mid)
	l.agents[mid] = a
	if !spec.TCP {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen for agent %s: %w", mid, err)
	}
	l.lns = append(l.lns, ln)
	l.addrs[mid] = ln.Addr().String()
	l.served.Add(1)
	go func() {
		defer l.served.Done()
		_ = a.Serve(ln) // returns once the listener is closed
	}()
	return nil
}

// close stops the listeners and waits for every Serve loop to return.
func (l *lab) close() {
	for _, ln := range l.lns {
		ln.Close()
	}
	l.served.Wait()
	l.c.Close()
}

// controlPlane is the controller side, wired as cmd/perfsight-controller
// wires it by default: history store, journal, monitor and the anomaly
// pipeline on its AfterSweep hook.
type controlPlane struct {
	topo    *core.Topology
	ctl     *controller.Controller
	store   *history.Store
	journal *history.Journal
	mon     *history.Monitor
	pipe    *anomaly.Pipeline
	clients []*timedClient
	// expected is the number of elements the tenant holds; a sweep that
	// returns fewer missed one.
	expected int
}

// detection shapes the pipeline: the SLO window a triggered diagnosis
// analyzes, and an SLO cooldown and correlator ResolveAfter short
// enough that every injected fault opens an incident of its own.
type detection struct {
	Window       time.Duration
	Cooldown     time.Duration
	ResolveAfter time.Duration
}

func newControlPlane(det detection) *controlPlane {
	topo := core.NewTopology()
	ctl := controller.New(topo)
	ctl.Sweep = controller.DefaultSweepConfig()
	store := history.New(history.Config{
		Retention:          15 * time.Minute,
		MaxPointsPerSeries: 512,
		DownsampleStep:     10 * time.Second,
	})
	journal := history.NewJournal(256)
	mon := history.NewMonitor(ctl, store, history.MonitorConfig{})
	pipe := anomaly.NewPipeline(store, journal, anomaly.Config{
		SLO: anomaly.SLOConfig{}.WithBase(anomaly.SLO{
			DropRatePPS: 50,
			Bands:       6,
			Window:      anomaly.Duration(det.Window),
			Cooldown:    anomaly.Duration(det.Cooldown),
		}),
		Correlator: anomaly.CorrelatorConfig{
			Window:       5 * time.Minute,
			ResolveAfter: det.ResolveAfter,
		},
	})
	pipe.Net = func(t core.TenantID) *core.VirtualNet { return topo.Tenants[t] }
	pipe.TraceOf = ctl.LastTraceID
	return &controlPlane{topo: topo, ctl: ctl, store: store, journal: journal, mon: mon, pipe: pipe}
}

// register discovers an agent's elements into the tenant and attaches
// its client, wrapped so the traced run can time every query.
func (cp *controlPlane) register(mid core.MachineID, inner controller.AgentClient, spans *spanLog) error {
	if _, err := inner.Ping(); err != nil {
		return fmt.Errorf("agent %s unreachable: %w", mid, err)
	}
	metas, err := inner.ListElements()
	if err != nil {
		return fmt.Errorf("list elements of %s: %w", mid, err)
	}
	net := cp.topo.Net(tenant)
	for _, meta := range metas {
		net.Add(meta.ID, core.ElementInfo{Machine: mid, Kind: meta.Kind})
	}
	cp.expected += len(metas)
	tc := &timedClient{AgentClient: inner, spans: spans}
	cp.clients = append(cp.clients, tc)
	cp.ctl.RegisterAgent(mid, tc)
	return nil
}

// registerTCP dials every agent of the lab with the controller binary's
// default client settings: codec v2, sketch summaries and spans.
func (cp *controlPlane) registerTCP(l *lab, spans *spanLog) error {
	for _, mid := range l.ids {
		c := controller.NewTCPClient(l.addrs[mid])
		c.Codec = wire.CodecV2
		c.Sketch = true
		c.Spans = true
		if err := cp.register(mid, c, spans); err != nil {
			return err
		}
	}
	return nil
}

// registerLocal attaches every agent of the lab in-process.
func (cp *controlPlane) registerLocal(l *lab, spans *spanLog) error {
	for _, mid := range l.ids {
		if err := cp.register(mid, &controller.LocalClient{A: l.agents[mid]}, spans); err != nil {
			return err
		}
	}
	return nil
}

func (cp *controlPlane) close() {
	for _, c := range cp.clients {
		c.Close()
	}
}

// timedClient wraps an AgentClient; in the traced run it records one
// span per Query under the sweep that issued it.
type timedClient struct {
	controller.AgentClient
	spans *spanLog
}

func (t *timedClient) Query(q wire.Query) ([]core.Record, error) {
	if !t.spans.enabled() {
		return t.AgentClient.Query(q)
	}
	start := time.Now()
	recs, err := t.AgentClient.Query(q)
	name := "controller.query"
	if err != nil {
		name = "controller.query_error"
	}
	t.spans.add(name, t.spans.parent(), start, time.Since(start), len(recs))
	return recs, err
}

// LastTraceID keeps Controller.LastTraceID working through the wrapper.
func (t *timedClient) LastTraceID() uint64 {
	if c, ok := t.AgentClient.(interface{ LastTraceID() uint64 }); ok {
		return c.LastTraceID()
	}
	return 0
}

// sweepHook is the Monitor's AfterSweep: it counts records and missing
// elements for the correctness check and, in the traced run, times the
// anomaly pipeline's AfterSweep.
type sweepHook struct {
	cp      *controlPlane
	spans   *spanLog
	records int
	missing int
}

func (h *sweepHook) afterSweep(tid core.TenantID, recs map[core.ElementID]core.Record, err error) {
	h.records = len(recs)
	h.missing = h.cp.expected - len(recs)
	if !h.spans.enabled() {
		h.cp.pipe.AfterSweep(tid, recs, err)
		return
	}
	start := time.Now()
	h.cp.pipe.AfterSweep(tid, recs, err)
	h.spans.add("anomaly.after_sweep", h.spans.parent(), start, time.Since(start), len(recs))
}

// sweep runs one Monitor.Sweep and reports whether it was good: no
// error and every expected element present.
func (h *sweepHook) sweep() (time.Duration, error) {
	start := time.Now()
	err := h.cp.mon.Sweep(context.Background())
	d := time.Since(start)
	if err == nil && h.missing > 0 {
		err = fmt.Errorf("sweep missed %d of %d elements", h.missing, h.cp.expected)
	}
	return d, err
}

// firstGoodSweep sweeps until one sweep is good, within a bound.
func (h *sweepHook) firstGoodSweep() error {
	var err error
	for i := 0; i < 20; i++ {
		if _, err = h.sweep(); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.Join(errors.New("no good sweep during set-up"), err)
}
