// Command pgshard is one worker of a sharded ProbGraph serving cluster:
// it loads a full replica of a binary artifact (pgpack / pgserve -save
// output), takes responsibility for one block of the vertex partition,
// and serves the framed TCP protocol of internal/cluster — point
// queries on its embedded engine, row fetches for its peers' kernel
// partials, block partials for the router's scatter-gather, and
// hot-swap onto a new artifact during a rolling roll.
//
// Usage:
//
//	pgshard -artifact web.pg -shard 0/3 \
//	    -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
//
// The -peers list names every shard's address in index order (its own
// entry included); -shard i/n must agree with the list's length, and the
// fronting pgrouter validates both against its own configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/obs"
	"probgraph/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9000", "listen address for the shard RPC protocol")
		artifact  = flag.String("artifact", "", "binary artifact (.pg) to serve (required)")
		shard     = flag.String("shard", "0/1", "this shard's position as index/count, e.g. 1/3")
		peers     = flag.String("peers", "", "comma-separated shard addresses in index order (default: -addr alone)")
		workers   = flag.Int("workers", 1, "engine workers")
		kinds     = flag.String("kinds", "", "comma-separated sketch kinds to load (default: every resident kind)")
		est       = flag.String("est", "auto", "|X∩Y| estimator within the representation: auto | and | l | or | 1hsimple")
		cacheSize = flag.Int("cache", 1<<16, "engine result cache entries (0 = disabled)")
		useMmap   = flag.Bool("mmap", false, "open artifacts zero-copy via mmap; replicas of the same file share page-cache pages")
		timeout   = flag.Duration("query-timeout", 30*time.Second, "per point query evaluation budget")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("pgshard"))
		return
	}
	if *artifact == "" {
		log.Fatal("pgshard: -artifact is required (pack one with pgpack)")
	}

	index, count, err := parseShard(*shard)
	if err != nil {
		log.Fatalf("pgshard: %v", err)
	}
	peerList := []string{*addr}
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
	}
	kindList, err := parseKinds(*kinds)
	if err != nil {
		log.Fatalf("pgshard: %v", err)
	}
	estimator, err := core.ParseEstimator(*est)
	if err != nil {
		log.Fatalf("pgshard: %v", err)
	}
	cache := *cacheSize
	if cache == 0 {
		cache = -1
	}

	t0 := time.Now()
	s, err := cluster.NewShard(cluster.ShardConfig{
		Index: index, Shards: count, Peers: peerList,
		Workers: *workers, Kinds: kindList, Est: estimator,
		CacheSize: cache, QueryTimeout: *timeout, Mmap: *useMmap,
	}, *artifact)
	if err != nil {
		log.Fatalf("pgshard: %v", err)
	}
	lo, hi := s.Block()
	log.Printf("pgshard: %s", obs.VersionString("pgshard"))
	log.Printf("pgshard: shard %d/%d ready in %v, owns [%d,%d) of %s",
		index, count, time.Since(t0).Round(time.Millisecond), lo, hi, *artifact)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pgshard: %v", err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("pgshard: shutting down")
		s.Close()
	}()

	log.Printf("pgshard: listening on %s", *addr)
	if err := s.Serve(ln); err != nil {
		log.Fatalf("pgshard: %v", err)
	}
}

// parseShard parses "index/count".
func parseShard(s string) (index, count int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &count); err != nil {
		return 0, 0, fmt.Errorf("-shard %q is not index/count (e.g. 1/3)", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q: index must be in [0,%d)", s, count)
	}
	return index, count, nil
}

// parseKinds parses the -kinds list; empty selects every resident kind.
func parseKinds(s string) ([]core.Kind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []core.Kind
	for _, part := range strings.Split(s, ",") {
		k, err := serve.ParseKind(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}
