package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"maybms"
	"maybms/internal/sqlparse"
)

// wstep is one statement of a figure script with its op type, the rows it
// loads (load ops) and its answer check.
type wstep struct {
	typ   string
	stmt  string
	rows  int
	check func(*maybms.ServerResponse) error
}

// script is one figure script, replayed on a fresh session per round.
type script struct {
	name       string
	backend    string
	incomplete bool
	steps      []wstep
}

func num(x any) float64 {
	switch v := x.(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return math.NaN()
}

func cell(x any) string {
	if s, ok := x.(string); ok {
		return s
	}
	return strconv.FormatFloat(num(x), 'g', 10, 64)
}

func ack(resp *maybms.ServerResponse) error {
	if resp.Kind != "ok" {
		return fmt.Errorf("kind %q, want an acknowledgement", resp.Kind)
	}
	return nil
}

// worldProbs checks a per-world answer's world probabilities.
func worldProbs(want ...float64) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		got := make([]float64, len(resp.Worlds))
		for i, w := range resp.Worlds {
			got[i] = w.Prob
		}
		sort.Float64s(got)
		sort.Float64s(want)
		if len(got) != len(want) {
			return fmt.Errorf("%d worlds, want %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return fmt.Errorf("world probabilities %v, want %v", got, want)
			}
		}
		return nil
	}
}

// worldSizes checks a per-world answer's row count in every world.
func worldSizes(want ...int) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		got := make([]int, len(resp.Worlds))
		for i, w := range resp.Worlds {
			got[i] = len(w.Rows.Rows)
		}
		sort.Ints(got)
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("world sizes %v, want %v", got, want)
		}
		return nil
	}
}

// closed checks a single closed answer's first column against want (as a
// set).
func closed(want ...string) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		if len(resp.Groups) != 1 {
			return fmt.Errorf("%d groups, want 1", len(resp.Groups))
		}
		var got []string
		for _, r := range resp.Groups[0].Rows.Rows {
			got = append(got, cell(r[0]))
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("answer %v, want %v", got, want)
		}
		return nil
	}
}

// closedRows checks a single closed answer's row count.
func closedRows(n int) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		if len(resp.Groups) != 1 || len(resp.Groups[0].Rows.Rows) != n {
			return fmt.Errorf("want one group of %d rows", n)
		}
		return nil
	}
}

// confs checks a closed answer whose last column is conf: the row whose
// other cells render as key must have confidence want[key].
func confs(want map[string]float64) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		if len(resp.Groups) != 1 || len(resp.Groups[0].Rows.Rows) != len(want) {
			return fmt.Errorf("want one group of %d rows", len(want))
		}
		for _, r := range resp.Groups[0].Rows.Rows {
			parts := make([]string, len(r)-1)
			for i := range parts {
				parts[i] = cell(r[i])
			}
			key := strings.Join(parts, ",")
			w, ok := want[key]
			if !ok || math.Abs(num(r[len(r)-1])-w) > 1e-9 {
				return fmt.Errorf("conf(%s) = %v, want %v", key, r[len(r)-1], w)
			}
		}
		return nil
	}
}

// groupSizes checks a GROUP WORLDS BY answer's row count per group and
// that the group probabilities sum to 1 (weighted sessions).
func groupSizes(weighted bool, want ...int) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		got := make([]int, len(resp.Groups))
		sum := 0.0
		for i, g := range resp.Groups {
			got[i] = len(g.Rows.Rows)
			sum += g.Prob
		}
		sort.Ints(got)
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("group sizes %v, want %v", got, want)
		}
		if weighted && math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("group probabilities sum to %v", sum)
		}
		return nil
	}
}

func figure1Steps() []wstep {
	return []wstep{
		{typ: opOther, stmt: "create table R (A, B, C, D)", check: ack},
		{typ: opLoad, rows: 5, check: ack, stmt: `insert into R values
			('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
			('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
			('a3', 20, 'c5', 6)`},
		{typ: opOther, stmt: "create table S (C, E)", check: ack},
		{typ: opLoad, rows: 3, check: ack, stmt: "insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2')"},
	}
}

// figureScripts are the paper's figures and examples with the values
// cmd/repro asserts: five scripts, four on naive sessions and one on a
// compact session.
func figureScripts() []script {
	steps := func(extra ...wstep) []wstep { return append(figure1Steps(), extra...) }
	figure2 := steps(
		wstep{typ: opCondSelect, stmt: "select count(*) from R", check: closedWorldValue("5")},
		// Examples 2.6, 2.7, 2.9.
		wstep{typ: opCondSelect, stmt: "select * from S choice of E", check: worldSizes(1, 2)},
		wstep{typ: opCondSelect, stmt: "select * from R choice of A weight D", check: worldProbs(6.0/23, 8.0/23, 9.0/23)},
		wstep{typ: opCertain, stmt: "select certain E from S choice of C", check: closed("e1")},
		wstep{typ: opOther, stmt: "create table I as select A, B, C from R repair by key A weight D", check: ack},
		// Figure 2 / Example 2.4.
		wstep{typ: opCondSelect, stmt: "select * from I", check: worldProbs(1.0/9, 1.0/3, 5.0/36, 5.0/12)},
		// Example 2.1.
		wstep{typ: opCondSelect, stmt: "select * from I where A = 'a3'", check: worldSizes(1, 1, 1, 1)},
		// Example 2.2.
		wstep{typ: opOther, stmt: "create table D as select * from I where A = 'a3'", check: ack},
		wstep{typ: opCondSelect, stmt: "select * from D", check: worldSizes(1, 1, 1, 1)},
		// Example 2.8.
		wstep{typ: opPossible, stmt: "select possible sum(B) from I", check: closed("44", "49", "50", "55")},
		// Example 2.10.
		wstep{typ: opConf, stmt: "select conf from I where 50 > (select sum(B) from I)",
			check: confs(map[string]float64{"": 4.0 / 9})},
		wstep{typ: opConf, stmt: "select conf from I where (select sum(B) from I) = 44 or (select sum(B) from I) = 55",
			check: confs(map[string]float64{"": 19.0 / 36})},
		// Updates of the complete base tables.
		wstep{typ: opDML, stmt: "update R set B = B + 1 where A = 'a3'", check: ack},
		wstep{typ: opCertain, stmt: "select certain B from R where A = 'a3'", check: closed("21")},
		wstep{typ: opDML, stmt: "delete from S where C = 'c2'", check: ack},
		wstep{typ: opCertain, stmt: "select certain E from S choice of C", check: closed("e1", "e2")},
		// Example 2.5.
		wstep{typ: opOther, stmt: "create table J as select * from I assert not exists (select * from I where C = 'c1')", check: ack},
		wstep{typ: opCondSelect, stmt: "select * from J", check: worldProbs(4.0/9, 5.0/9)},
	)
	// Example 2.3.
	unweighted := steps(
		wstep{typ: opOther, stmt: "create table I as select A, B, C from R repair by key A", check: ack},
		wstep{typ: opCondSelect, stmt: "select * from I", check: worldSizes(3, 3, 3, 3)},
	)
	validCond := "exists (select * from I where Gender = 'cow' and Pos = 'b')"
	whales := []wstep{
		{typ: opOther, stmt: "create table W (WID, Id, Species, Gender, Pos)", check: ack},
		{typ: opLoad, rows: 18, check: ack, stmt: `insert into W values
			('A', 1, 'sperm', 'calf', 'b'), ('A', 2, 'sperm', 'cow', 'c'), ('A', 3, 'orca', 'cow', 'a'),
			('B', 1, 'sperm', 'calf', 'b'), ('B', 2, 'sperm', 'cow', 'c'), ('B', 3, 'orca', 'bull', 'a'),
			('C', 1, 'sperm', 'calf', 'b'), ('C', 2, 'sperm', 'bull', 'c'), ('C', 3, 'orca', 'cow', 'a'),
			('D', 1, 'sperm', 'calf', 'b'), ('D', 2, 'sperm', 'bull', 'c'), ('D', 3, 'orca', 'bull', 'a'),
			('E', 1, 'sperm', 'calf', 'c'), ('E', 2, 'sperm', 'cow', 'b'), ('E', 3, 'orca', 'cow', 'a'),
			('F', 1, 'sperm', 'calf', 'c'), ('F', 2, 'sperm', 'bull', 'b'), ('F', 3, 'orca', 'cow', 'a')`},
		{typ: opOther, stmt: "create table I as select Id, Species, Gender, Pos from W choice of WID", check: ack},
		// Figure 3 and the §3.1 query.
		{typ: opCondSelect, stmt: "select * from I", check: worldSizes(3, 3, 3, 3, 3, 3)},
		{typ: opPossible, stmt: "select possible 'yes' from I where Id = 1 and Pos = 'b'", check: closed("yes")},
		// Figure 4.
		{typ: opGroupWorlds, check: groupSizes(false, 4, 2), stmt: `select possible i2.Gender as G2, i3.Gender as G3
			from I i2, I i3 where i2.Id = 2 and i3.Id = 3
			group worlds by (select Pos from I where Id = 2)`},
		// §3.1: the WHERE view keeps all worlds, the ASSERT view only E.
		{typ: opOther, stmt: "create view ValidP as select * from I where " + validCond, check: ack},
		{typ: opCertain, stmt: "select certain * from ValidP", check: closedRows(0)},
		{typ: opOther, stmt: "create view Valid as select * from I assert " + validCond, check: ack},
		{typ: opPossible, stmt: "select possible 'yes' from Valid where Id = 1 and Pos = 'b'", check: closedRows(0)},
		{typ: opCertain, stmt: "select certain * from Valid", check: closedRows(3)},
	}
	cleaning := []wstep{
		{typ: opOther, stmt: "create table R (SSN, TEL)", check: ack},
		{typ: opLoad, rows: 2, stmt: "insert into R values (123, 456), (789, 123)", check: ack},
		// Figures 5, 6 and 7.
		{typ: opOther, check: ack, stmt: `create table S as
			select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union
			select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R`},
		{typ: opCondSelect, stmt: "select count(*) from S", check: closedWorldValue("4")},
		{typ: opOther, stmt: `create table T as select "SSN'", "TEL'" from S repair by key SSN, TEL`, check: ack},
		{typ: opCondSelect, stmt: "select * from T", check: worldSizes(2, 2, 2, 2)},
		{typ: opOther, check: ack, stmt: `create table U as select * from T assert not exists
			(select 'yes' from T t1, T t2 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'")`},
		{typ: opCondSelect, stmt: "select * from U", check: worldSizes(2, 2, 2)},
	}
	compact := steps(
		wstep{typ: opOther, stmt: "create table I as select A, B, C from R repair by key A weight D", check: ack},
		wstep{typ: opConf, stmt: "select A, B, C, conf from I", check: confs(map[string]float64{
			"a1,10,c1": 0.25, "a1,15,c2": 0.75, "a2,14,c3": 4.0 / 9, "a2,20,c4": 5.0 / 9, "a3,20,c5": 1})},
		wstep{typ: opPossible, stmt: "select possible B from I", check: closed("10", "14", "15", "20")},
		wstep{typ: opCertain, stmt: "select certain A from I", check: closed("a1", "a2", "a3")},
		wstep{typ: opCondSelect, stmt: "select * from I where A = 'a1'", check: closedRows(2)},
		wstep{typ: opOther, stmt: "create table SC as select * from S choice of C", check: ack},
		wstep{typ: opCertain, stmt: "select certain E from SC", check: closed("e1")},
		wstep{typ: opGroupWorlds, stmt: "select possible B from I group worlds by (select E from SC)", check: groupSizes(true, 4, 4)},
		wstep{typ: opDML, stmt: "update I set B = B + 100 where A = 'a3'", check: ack},
		wstep{typ: opPossible, stmt: "select possible B from I where A = 'a3'", check: closed("120")},
	)
	return []script{
		{name: "figure2", backend: "naive", steps: figure2},
		{name: "example23", backend: "naive", incomplete: true, steps: unweighted},
		{name: "whales", backend: "naive", incomplete: true, steps: whales},
		{name: "cleaning", backend: "naive", incomplete: true, steps: cleaning},
		{name: "compact", backend: "compact", steps: compact},
	}
}

// closedWorldValue checks a one-world, one-cell per-world answer.
func closedWorldValue(want string) func(*maybms.ServerResponse) error {
	return func(resp *maybms.ServerResponse) error {
		if len(resp.Worlds) != 1 || len(resp.Worlds[0].Rows.Rows) != 1 {
			return fmt.Errorf("want one world with one row")
		}
		if got := cell(resp.Worlds[0].Rows.Rows[0][0]); got != want {
			return fmt.Errorf("answer %s, want %s", got, want)
		}
		return nil
	}
}

// ---- the served workload ----

type figures struct {
	rng     *rand.Rand
	scripts []script
	srv     *maybms.Server
	clis    []*figClient
	// gate0 holds the /metrics gate counters at the start of a pass.
	gate0 map[string]float64
}

// figClient is one closed-loop client over one transport.
type figClient struct {
	f      *figures
	id     int
	http   *http.Client
	url    string
	conn   net.Conn
	enc    *json.Encoder
	dec    *json.Decoder
	rng    *rand.Rand
	rounds int
}

func newFigures(rng *rand.Rand) *figures {
	return &figures{rng: rng, scripts: figureScripts()}
}

func (f *figures) shape() map[string]any {
	n := 0
	for _, s := range f.scripts {
		n += len(s.steps) + 1
	}
	return map[string]any{"clients": 2, "transports": "http,tcp", "scripts": len(f.scripts), "requests_per_round": n}
}

func (f *figures) setup() error {
	srv, err := maybms.Serve(maybms.ServerConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	f.srv, f.clis = srv, nil
	httpCli := &figClient{f: f, id: 0, url: "http://" + srv.HTTPAddr().String(),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		f.teardown()
		return err
	}
	tcpCli := &figClient{f: f, id: 1, conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
	f.clis = []*figClient{httpCli, tcpCli}
	for _, c := range f.clis {
		c.rng = rand.New(rand.NewSource(f.rng.Int63()))
	}
	// The first round of each client is part of set-up: cold sessions,
	// cold plan cache, first connections.
	p := newPass()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range f.clis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := newPass()
			c.round(q, false)
			mu.Lock()
			p.merge(q)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if p.failed > 0 {
		f.teardown()
		return fmt.Errorf("%s", strings.Join(p.errs, "; "))
	}
	return nil
}

func (f *figures) teardown() {
	if f.srv == nil {
		return
	}
	for _, c := range f.clis {
		if c.conn != nil {
			c.conn.Close()
		}
		if c.http != nil {
			c.http.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // a forced close after the deadline is fine for a benchmark teardown
	f.srv = nil
}

// figState is the served workload's set-up state.
type figState struct {
	srv  *maybms.Server
	clis []*figClient
}

func (f *figures) detach() any {
	s := figState{f.srv, f.clis}
	f.srv, f.clis = nil, nil
	return s
}

func (f *figures) attach(state any) {
	s := state.(figState)
	f.srv, f.clis = s.srv, s.clis
}

func (f *figures) clients() []client {
	out := make([]client, len(f.clis))
	for i, c := range f.clis {
		out[i] = c
	}
	return out
}

// beginPass and endPass read the admission-gate families from GET
// /metrics around the reference pass.
func (f *figures) beginPass() { f.gate0 = f.scrapeGate() }

func (f *figures) endPass(p *pass) {
	g := f.scrapeGate()
	p.counts["gate_acquires"] = g["maybms_gate_acquires_total"] - f.gate0["maybms_gate_acquires_total"]
	p.counts["gate_waited"] = g["maybms_gate_waited_total"] - f.gate0["maybms_gate_waited_total"]
	p.counts["gate_wait_s"] = g["maybms_gate_wait_seconds_sum"] - f.gate0["maybms_gate_wait_seconds_sum"]
}

// scrapeGate reads the gate counters from the server's /metrics page.
func (f *figures) scrapeGate() map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get("http://" + f.srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if ok && strings.HasPrefix(name, "maybms_gate_") {
			if x, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = x
			}
		}
	}
	return out
}

func (f *figures) verify(*pass) {} // every figures op checks its own answer

// round replays every script, in a seeded order, each on a fresh
// session that is closed afterwards. A traced round alternates between
// the wire and in-process (*server.Server).Handle, so both the round trip
// and the handler time are measured.
func (c *figClient) round(p *pass, traced bool) {
	c.rounds++
	direct := traced && c.rounds%2 == 0
	order := c.rng.Perm(len(c.f.scripts))
	for _, i := range order {
		s := c.f.scripts[i]
		session := fmt.Sprintf("c%d-r%d-%s", c.id, c.rounds, s.name)
		for _, st := range s.steps {
			req := &maybms.ServerRequest{Session: session, Query: st.stmt, Backend: s.backend, Incomplete: s.incomplete, Trace: traced}
			if traced {
				t0 := time.Now()
				_, perr := sqlparse.Parse(st.stmt)
				p.time("sqlparse.parse", time.Since(t0))
				if perr != nil {
					p.fail(st.stmt, perr)
				}
			}
			resp, d, err := c.send(p, req, direct)
			if err == nil && !resp.OK {
				err = fmt.Errorf("%s", resp.Error)
			}
			if err == nil {
				err = st.check(resp)
			}
			p.record(st.typ, st.stmt, d, err)
			if st.typ == opLoad {
				p.loadRows += st.rows
				p.loadDur += d
			}
			if traced && resp != nil {
				p.traces = append(p.traces, tracedOp{typ: st.typ, backend: s.backend, dur: d, trace: resp.Trace, answerRows: wireRows(resp), direct: direct})
			}
		}
		if traced && s.backend == "compact" {
			c.countRoutes(p, session, direct)
		}
		resp, d, err := c.send(p, &maybms.ServerRequest{Op: "close", Session: session}, direct)
		if err == nil && !resp.OK {
			err = fmt.Errorf("%s", resp.Error)
		}
		p.record(opOther, "close "+session, d, err)
	}
}

// countRoutes adds the compact session's routing counters (from the
// stats op) to the pass.
func (c *figClient) countRoutes(p *pass, session string, direct bool) {
	resp, _, err := c.send(p, &maybms.ServerRequest{Op: "stats"}, direct)
	if err != nil || resp.Stats == nil {
		p.fail("stats", fmt.Errorf("no stats: %v", err))
		return
	}
	for _, s := range resp.Stats.Sessions {
		if s.Name == session && s.Compact != nil {
			p.addRoutes(routes{}, routes{s.Compact.Merges, s.Compact.Componentwise, s.Compact.Conditional})
		}
	}
}

func wireRows(resp *maybms.ServerResponse) int {
	n := 0
	for _, g := range resp.Groups {
		n += len(g.Rows.Rows)
	}
	for _, w := range resp.Worlds {
		n += len(w.Rows.Rows)
	}
	return n
}

// send delivers one request over the client's transport, or through
// Handle in-process when direct, and returns the response and the round
// trip. Traced requests time their layer.
func (c *figClient) send(p *pass, req *maybms.ServerRequest, direct bool) (*maybms.ServerResponse, time.Duration, error) {
	start := time.Now()
	var resp *maybms.ServerResponse
	var err error
	layer := "server.tcp_rtt"
	switch {
	case direct:
		layer = "server.handle"
		resp = c.f.srv.Handle(context.Background(), req)
	case c.http != nil:
		layer = "server.http_rtt"
		resp, err = c.postHTTP(req)
	default:
		resp = &maybms.ServerResponse{}
		if err = c.enc.Encode(req); err == nil {
			err = c.dec.Decode(resp)
		}
	}
	d := time.Since(start)
	if req.Trace {
		p.time(layer, d)
	}
	return resp, d, err
}

func (c *figClient) postHTTP(req *maybms.ServerRequest) (*maybms.ServerResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := c.http.Post(c.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	resp := &maybms.ServerResponse{}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, hr.Body) // drain so the connection is reused
	return resp, nil
}
