package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// clusterNode is one member of an in-process test cluster: a full Server
// (own store, own worker pool) on a live HTTP listener.
type clusterNode struct {
	srv   *Server
	hs    *httptest.Server
	store *simcache.Store
	c     *Client
	execs atomic.Int64 // simulations this node's simFn actually ran
}

// startCluster builds an n-node cluster. Peer URLs must exist before the
// servers are configured, so each listener starts with a late-bound handler
// that is pointed at its Server once constructed. The background heartbeat
// loop is disabled — tests drive protocol rounds explicitly — and seeds
// start alive, so routing is deterministic from the first request.
func startCluster(t *testing.T, n int, fn simFunc, tweak func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	infos := make([]cluster.NodeInfo, n)
	handlers := make([]atomic.Value, n) // of http.Handler
	for i := range nodes {
		i := i
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		infos[i] = cluster.NodeInfo{ID: fmt.Sprintf("node%d", i), URL: hs.URL}
		nodes[i] = &clusterNode{hs: hs}
	}
	for i, cn := range nodes {
		store, err := simcache.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Store: store, Workers: 2, SimParallelism: 2,
			Cluster: &cluster.Options{
				Self:              infos[i],
				Seeds:             infos,
				HeartbeatInterval: -1,
			},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		srv := New(cfg)
		if fn != nil {
			cn := cn
			srv.simFn = func(ctx context.Context, c sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
				cn.execs.Add(1)
				return fn(ctx, c, spec, w, opt)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		handlers[i].Store(srv.Handler())
		cn.srv, cn.store, cn.c = srv, store, NewClient(infos[i].URL)
	}
	return nodes
}

// keyAndOwner computes the request's cache key the way the daemon will and
// resolves which node owns it.
func keyAndOwner(t *testing.T, nodes []*clusterNode, req SimRequest) (string, int) {
	t.Helper()
	u, err := resolve(req.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	key := simcache.Key(cfg, u.spec, u.w, req.Opt)
	info, self := nodes[0].srv.Cluster().Owner(key)
	if self {
		return key, 0
	}
	for i := range nodes {
		if nodes[i].srv.Cluster().Self().ID == info.ID {
			return key, i
		}
	}
	t.Fatalf("owner %s not among test nodes", info.ID)
	return "", 0
}

func totalExecs(nodes []*clusterNode) int64 {
	var n int64
	for _, cn := range nodes {
		n += cn.execs.Load()
	}
	return n
}

func runOne(t *testing.T, c *Client, req SimRequest) sim.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	v, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Follow(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", final.ID, final.Status, final.Error)
	}
	if len(final.Results) != 1 {
		t.Fatalf("job %s returned %d results", final.ID, len(final.Results))
	}
	return final.Results[0]
}

// TestClusterWarmCrossNodeHit is the acceptance check for cross-node cache
// fill: a result simulated and cached on its owning node is served to a
// client of a different node with zero additional simulations — a warm
// remote hit, checksum-verified on the wire and counted in the metrics.
func TestClusterWarmCrossNodeHit(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	key, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	// Cold: the owner's own client simulates once, filling only its store.
	first := runOne(t, nodes[owner].c, req)
	if got := totalExecs(nodes); got != 1 {
		t.Fatalf("cold run executed %d sims, want 1", got)
	}
	if _, ok := nodes[other].store.Get(key); ok {
		t.Fatal("entry leaked to the non-owner before it ever asked")
	}

	// Warm: the other node's client gets the owner's cached bytes.
	second := runOne(t, nodes[other].c, req)
	if got := totalExecs(nodes); got != 1 {
		t.Fatalf("warm cross-node run re-simulated: %d total execs, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cross-node result differs:\n%+v\n%+v", first, second)
	}
	if got := nodes[other].srv.Cluster().Stats().RemoteHits; got != 1 {
		t.Errorf("non-owner RemoteHits = %d, want 1", got)
	}
	if got := nodes[owner].srv.Cluster().Stats().EntriesServed; got != 1 {
		t.Errorf("owner EntriesServed = %d, want 1", got)
	}
	// The fill landed, so a third request on that node is a purely local hit.
	if _, ok := nodes[other].store.Get(key); !ok {
		t.Error("remote hit did not warm the local store")
	}
	runOne(t, nodes[other].c, req)
	if got := nodes[other].srv.Cluster().Stats().RemoteHits; got != 1 {
		t.Errorf("local re-serve went remote again: RemoteHits = %d", got)
	}

	// And the exposition reflects it.
	resp, err := http.Get(nodes[other].hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "psimd_cluster_remote_hits_total 1") {
		t.Error("/metrics missing psimd_cluster_remote_hits_total 1")
	}
}

// TestClusterProxyExec: a cold request arriving at a non-owner is computed
// on the owner (exactly-once, owner-side accounting) and the result fills
// both stores.
func TestClusterProxyExec(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	key, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	runOne(t, nodes[other].c, req)
	if got := nodes[owner].execs.Load(); got != 1 {
		t.Errorf("owner executed %d sims, want 1 (proxied to owner)", got)
	}
	if got := nodes[other].execs.Load(); got != 0 {
		t.Errorf("non-owner executed %d sims, want 0", got)
	}
	if got := nodes[other].srv.Cluster().Stats().ProxiedSims; got != 1 {
		t.Errorf("ProxiedSims = %d, want 1", got)
	}
	for i, cn := range nodes {
		if _, ok := cn.store.Get(key); !ok {
			t.Errorf("node %d store missing the entry after proxied execution", i)
		}
	}
	// The owner's executed-counter carries the work; the requester's does not.
	if got := nodes[owner].srv.m.simsExecuted.Load(); got != 1 {
		t.Errorf("owner psimd_sims_executed_total = %d, want 1", got)
	}
	if got := nodes[other].srv.m.simsExecuted.Load(); got != 0 {
		t.Errorf("non-owner psimd_sims_executed_total = %d, want 0", got)
	}
}

// TestClusterFailover: when a key's owner is unreachable, the requesting
// node computes locally — a dead node costs throughput, not availability —
// and the failure immediately removes the owner from the requester's ring.
func TestClusterFailover(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	_, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	nodes[owner].hs.CloseClientConnections()
	nodes[owner].hs.Close()

	res := runOne(t, nodes[other].c, req)
	if res.Instructions != 1000 {
		t.Fatalf("failover result = %+v", res)
	}
	if got := nodes[other].execs.Load(); got != 1 {
		t.Errorf("survivor executed %d sims, want 1", got)
	}
	if got := nodes[other].srv.Cluster().Stats().Failovers; got != 1 {
		t.Errorf("Failovers = %d, want 1", got)
	}
	if got := nodes[other].srv.Cluster().Membership().Ring().Len(); got != 1 {
		t.Errorf("dead owner still on ring (len %d), want 1", got)
	}
}

// ownedRequest returns a single-sim request whose cache key is owned by
// nodes[owner], found by walking seeds (each seed changes the key).
func ownedRequest(t *testing.T, nodes []*clusterNode, owner int, fromSeed uint64) SimRequest {
	t.Helper()
	for seed := fromSeed; seed < fromSeed+200; seed++ {
		req := testRequest(1)
		req.Opt.Seed = seed
		if _, o := keyAndOwner(t, nodes, req); o == owner {
			return req
		}
	}
	t.Fatal("no owned key in 200 seeds (ring distribution broken?)")
	return SimRequest{}
}

// TestClusterProxyBusyOwner: a cold request arriving at a non-owner while
// the owner's only simulation slot is taken is proxied and waits there — it
// neither fails over nor runs anywhere else — and once the slot frees it
// executes exactly once, on the owner.
func TestClusterProxyBusyOwner(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), func(i int, cfg *Config) {
		cfg.SimParallelism = 1
	})
	owner, other := nodes[0], nodes[1]
	// The owner's only slot wedges on a gated sim. entered reports each run
	// and is sized to the owner's two runs (A, then B), so no send blocks.
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	owner.srv.simFn = func(ctx context.Context, c sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		owner.execs.Add(1)
		entered <- struct{}{}
		select {
		case <-gate:
			return telemetryFixture(), nil
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}

	// Both keys are owned by nodes[0], so the owner runs A itself and the
	// other node proxies B to it.
	reqA := ownedRequest(t, nodes, 0, 1)
	reqB := ownedRequest(t, nodes, 0, reqA.Opt.Seed+1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	vA, err := owner.c.Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered: // A holds the owner's only slot
	case <-ctx.Done():
		t.Fatal("wedging sim never started")
	}
	vB, err := other.c.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}

	// B cannot finish while the slot is wedged: it waits on the owner.
	wctx, wcancel := context.WithTimeout(ctx, 200*time.Millisecond)
	_, err = other.c.Follow(wctx, vB.ID, nil)
	wcancel()
	if err == nil {
		t.Fatal("proxied job finished while the owner's only slot was wedged")
	}

	close(gate)
	for _, f := range []struct {
		c  *Client
		id string
	}{{owner.c, vA.ID}, {other.c, vB.ID}} {
		done, err := f.c.Follow(ctx, f.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != StatusDone {
			t.Fatalf("job %s = %s (%s)", f.id, done.Status, done.Error)
		}
	}
	if got := owner.execs.Load(); got != 2 {
		t.Errorf("owner executed %d sims, want 2 (A, then proxied B once)", got)
	}
	if got := other.execs.Load(); got != 0 {
		t.Errorf("non-owner executed %d sims, want 0", got)
	}
	st := other.srv.Cluster().Stats()
	if st.ProxiedSims != 1 {
		t.Errorf("ProxiedSims = %d, want 1", st.ProxiedSims)
	}
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0", st.Failovers)
	}
}
