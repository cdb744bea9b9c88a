package cluster

import (
	"fmt"
	"io"
)

// WriteMetrics renders the node's psimd_cluster_* metric families in
// Prometheus text exposition format; the service appends it to /metrics.
func (n *Node) WriteMetrics(w io.Writer) {
	alive, dead := n.mem.Counts()
	fmt.Fprintf(w, "# HELP psimd_cluster_peers Known remote members by routability.\n# TYPE psimd_cluster_peers gauge\n")
	fmt.Fprintf(w, "psimd_cluster_peers{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(w, "psimd_cluster_peers{state=\"dead\"} %d\n", dead)
	fmt.Fprintf(w, "# HELP psimd_cluster_ring_nodes Members on the routing ring (self included).\n# TYPE psimd_cluster_ring_nodes gauge\npsimd_cluster_ring_nodes %d\n", n.mem.Ring().Len())

	st := n.Stats()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("psimd_cluster_remote_hits_total", "Results served by a peer's cache instead of simulating here.", st.RemoteHits)
	counter("psimd_cluster_proxied_total", "Simulations executed remotely on their owning node.", st.ProxiedSims)
	counter("psimd_cluster_failovers_total", "Remote attempts abandoned for local execution.", st.Failovers)
	counter("psimd_cluster_entries_served_total", "Cache entries served to peers.", st.EntriesServed)

	n.proxyLatency.WritePrometheus(w, "psimd_cluster_proxy_latency_seconds",
		"Round-trip seconds of remote cache fetches and proxied simulations.")
}
