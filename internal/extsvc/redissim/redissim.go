// Package redissim simulates the Redis deployment of the paper's Section
// VI-D experiment: a sharded in-memory key-value store reached through a
// pipelining client that pays realistic protocol costs — every command is
// encoded to RESP (the Redis serialization protocol) and parsed back on
// the "server" side, so Figure 14's "writing data" share measures real
// client/server CPU work.
package redissim

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
)

// Server is a sharded string→int64 store (the aggregation sink the
// paper's topology writes to).
type Server struct {
	shards []*shard
}

type shard struct {
	mu   sync.Mutex
	data map[string]int64
	// blobs is the binary namespace used by the checkpoint backend
	// (BSET/BGET/BKEYS/BDEL); disjoint from the counter namespace.
	blobs map[string][]byte
}

// NewServer creates a server with n shards.
func NewServer(n int) *Server {
	if n < 1 {
		n = 1
	}
	s := &Server{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{data: map[string]int64{}, blobs: map[string][]byte{}}
	}
	return s
}

func (s *Server) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Get returns a key's value.
func (s *Server) Get(key string) (int64, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.data[key]
	return v, ok
}

// Keys returns the total number of keys.
func (s *Server) Keys() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// execRESP parses one RESP command array and applies it. Only the
// commands the ETL workload needs are implemented.
func (s *Server) execRESP(cmd []byte) error {
	args, err := parseRESP(cmd)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("redissim: empty command")
	}
	switch args[0] {
	case "INCRBY":
		if len(args) != 3 {
			return fmt.Errorf("redissim: INCRBY arity")
		}
		delta, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return err
		}
		sh := s.shardFor(args[1])
		sh.mu.Lock()
		sh.data[args[1]] += delta
		sh.mu.Unlock()
	case "SET":
		if len(args) != 3 {
			return fmt.Errorf("redissim: SET arity")
		}
		v, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return err
		}
		sh := s.shardFor(args[1])
		sh.mu.Lock()
		sh.data[args[1]] = v
		sh.mu.Unlock()
	default:
		return fmt.Errorf("redissim: unknown command %q", args[0])
	}
	return nil
}

// execRESPReply parses one RESP command array, applies it and returns the
// RESP-encoded reply. It carries the blob commands the checkpoint backend
// needs; the fire-and-forget counter pipeline keeps using execRESP.
func (s *Server) execRESPReply(cmd []byte) ([]byte, error) {
	args, err := parseRESP(cmd)
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("redissim: empty command")
	}
	switch args[0] {
	case "BSET":
		if len(args) != 3 {
			return nil, fmt.Errorf("redissim: BSET arity")
		}
		sh := s.shardFor(args[1])
		sh.mu.Lock()
		sh.blobs[args[1]] = []byte(args[2])
		sh.mu.Unlock()
		return []byte("+OK\r\n"), nil
	case "BGET":
		if len(args) != 2 {
			return nil, fmt.Errorf("redissim: BGET arity")
		}
		sh := s.shardFor(args[1])
		sh.mu.Lock()
		v, ok := sh.blobs[args[1]]
		if ok {
			v = append([]byte(nil), v...)
		}
		sh.mu.Unlock()
		if !ok {
			return []byte("$-1\r\n"), nil
		}
		out := append([]byte(nil), '$')
		out = strconv.AppendInt(out, int64(len(v)), 10)
		out = append(out, '\r', '\n')
		out = append(out, v...)
		return append(out, '\r', '\n'), nil
	case "BKEYS":
		if len(args) != 2 {
			return nil, fmt.Errorf("redissim: BKEYS arity")
		}
		var keys []string
		for _, sh := range s.shards {
			sh.mu.Lock()
			for k := range sh.blobs {
				if strings.HasPrefix(k, args[1]) {
					keys = append(keys, k)
				}
			}
			sh.mu.Unlock()
		}
		return appendRESP(nil, keys...), nil
	case "BDEL":
		if len(args) != 2 {
			return nil, fmt.Errorf("redissim: BDEL arity")
		}
		n := 0
		for _, sh := range s.shards {
			sh.mu.Lock()
			for k := range sh.blobs {
				if strings.HasPrefix(k, args[1]) {
					delete(sh.blobs, k)
					n++
				}
			}
			sh.mu.Unlock()
		}
		out := append([]byte(nil), ':')
		out = strconv.AppendInt(out, int64(n), 10)
		return append(out, '\r', '\n'), nil
	default:
		// Counter commands reply +OK so a caller can mix them in.
		if err := s.execRESP(cmd); err != nil {
			return nil, err
		}
		return []byte("+OK\r\n"), nil
	}
}

// appendRESP encodes an argument list as a RESP array of bulk strings.
func appendRESP(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// parseRESP decodes one RESP array of bulk strings.
func parseRESP(b []byte) ([]string, error) {
	readLine := func() ([]byte, error) {
		for i := 0; i+1 < len(b); i++ {
			if b[i] == '\r' && b[i+1] == '\n' {
				line := b[:i]
				b = b[i+2:]
				return line, nil
			}
		}
		return nil, fmt.Errorf("redissim: unterminated line")
	}
	line, err := readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, fmt.Errorf("redissim: expected array")
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, err := readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 || line[0] != '$' {
			return nil, fmt.Errorf("redissim: expected bulk string")
		}
		l, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return nil, err
		}
		if len(b) < l+2 {
			return nil, fmt.Errorf("redissim: short bulk string")
		}
		out = append(out, string(b[:l]))
		b = b[l+2:]
	}
	return out, nil
}

// Client is a pipelining Redis client: commands accumulate in a buffer
// and Flush sends the whole pipeline, amortizing round trips exactly as
// the paper's aggregator does before writing to Redis.
type Client struct {
	srv     *Server
	pending [][]byte
	scratch []byte
	// FlushEvery auto-flushes after this many buffered commands
	// (0 = manual flushes only).
	FlushEvery int
}

// NewClient connects a client to a server.
func NewClient(srv *Server) *Client { return &Client{srv: srv, FlushEvery: 128} }

// IncrBy queues an INCRBY command.
func (c *Client) IncrBy(key string, delta int64) {
	c.scratch = appendRESP(c.scratch[:0], "INCRBY", key, strconv.FormatInt(delta, 10))
	c.pending = append(c.pending, append([]byte(nil), c.scratch...))
	if c.FlushEvery > 0 && len(c.pending) >= c.FlushEvery {
		_ = c.Flush()
	}
}

// Set queues a SET command.
func (c *Client) Set(key string, v int64) {
	c.scratch = appendRESP(c.scratch[:0], "SET", key, strconv.FormatInt(v, 10))
	c.pending = append(c.pending, append([]byte(nil), c.scratch...))
	if c.FlushEvery > 0 && len(c.pending) >= c.FlushEvery {
		_ = c.Flush()
	}
}

// Flush executes the pipeline.
func (c *Client) Flush() error {
	var first error
	for _, cmd := range c.pending {
		if err := c.srv.execRESP(cmd); err != nil && first == nil {
			first = err
		}
	}
	c.pending = c.pending[:0]
	return first
}

// Pending returns the number of buffered commands.
func (c *Client) Pending() int { return len(c.pending) }

// Blob commands execute immediately (no pipelining): checkpoint traffic is
// rare and needs the reply, unlike the fire-and-forget counter pipeline.

// roundTrip encodes one command, runs it and returns the raw RESP reply.
func (c *Client) roundTrip(args ...string) ([]byte, error) {
	c.scratch = appendRESP(c.scratch[:0], args...)
	return c.srv.execRESPReply(c.scratch)
}

// SetBlob stores a binary value.
func (c *Client) SetBlob(key string, value []byte) error {
	reply, err := c.roundTrip("BSET", key, string(value))
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != '+' {
		return fmt.Errorf("redissim: BSET reply %q", reply)
	}
	return nil
}

// GetBlob fetches a binary value; ok is false on a nil reply.
func (c *Client) GetBlob(key string) (value []byte, ok bool, err error) {
	reply, err := c.roundTrip("BGET", key)
	if err != nil {
		return nil, false, err
	}
	if strings.HasPrefix(string(reply), "$-1") {
		return nil, false, nil
	}
	if len(reply) == 0 || reply[0] != '$' {
		return nil, false, fmt.Errorf("redissim: BGET reply %q", reply)
	}
	i := strings.Index(string(reply), "\r\n")
	if i < 0 {
		return nil, false, fmt.Errorf("redissim: BGET reply %q", reply)
	}
	l, err := strconv.Atoi(string(reply[1:i]))
	if err != nil || len(reply) < i+2+l {
		return nil, false, fmt.Errorf("redissim: BGET reply %q", reply)
	}
	return reply[i+2 : i+2+l], true, nil
}

// BlobKeys lists blob keys with the given prefix.
func (c *Client) BlobKeys(prefix string) ([]string, error) {
	reply, err := c.roundTrip("BKEYS", prefix)
	if err != nil {
		return nil, err
	}
	return parseRESP(reply)
}

// DeleteBlobs removes every blob key with the given prefix.
func (c *Client) DeleteBlobs(prefix string) error {
	reply, err := c.roundTrip("BDEL", prefix)
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != ':' {
		return fmt.Errorf("redissim: BDEL reply %q", reply)
	}
	return nil
}
