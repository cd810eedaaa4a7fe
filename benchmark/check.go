package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// scoreEps is the relative tolerance for comparing the daemon's scores
// with the naive evaluator's: both sum the same idf terms, but a
// compiled plan may add them in a different order.
const scoreEps = 1e-9

func scoreEqual(a, b float64) bool {
	return math.Abs(a-b) <= scoreEps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// answerBody is the part of a /query response the harness reads.
type answerBody struct {
	Answers []struct {
		Score float64 `json:"score"`
		Dewey string  `json:"dewey"`
	} `json:"answers"`
	ServerOps    int64   `json:"server_ops"`
	Matches      int64   `json:"matches_created"`
	Pruned       int64   `json:"pruned"`
	PrunedRemote int64   `json:"pruned_remote"`
	TookMS       float64 `json:"took_ms"`
	Cache        string  `json:"cache"`
}

// checkResponse validates one stored response against its class: 200,
// at most k answers, scores non-increasing and — for a verified class —
// the naive evaluator's score vector and its roots above the k-th-score
// boundary. It returns the parsed body for the per-layer counters.
func checkResponse(cl *class, s *sample) (*answerBody, error) {
	if s.err != nil {
		return nil, fmt.Errorf("%s: transport: %w", cl.name, s.err)
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", cl.name, s.status, s.body)
	}
	var body answerBody
	if err := json.Unmarshal(s.body, &body); err != nil {
		return nil, fmt.Errorf("%s: bad response body: %w", cl.name, err)
	}
	if len(body.Answers) > cl.k {
		return nil, fmt.Errorf("%s: %d answers for k=%d", cl.name, len(body.Answers), cl.k)
	}
	for i := 1; i < len(body.Answers); i++ {
		if body.Answers[i].Score > body.Answers[i-1].Score && !scoreEqual(body.Answers[i].Score, body.Answers[i-1].Score) {
			return nil, fmt.Errorf("%s: scores increase at answer %d", cl.name, i)
		}
	}
	if !cl.verified {
		return &body, nil
	}
	if len(body.Answers) != len(cl.want) {
		return nil, fmt.Errorf("%s: %d answers, naive evaluator has %d", cl.name, len(body.Answers), len(cl.want))
	}
	got := make(map[string]bool, len(body.Answers))
	for i, a := range body.Answers {
		if !scoreEqual(a.Score, cl.want[i]) {
			return nil, fmt.Errorf("%s: answer %d scores %v, naive evaluator says %v", cl.name, i, a.Score, cl.want[i])
		}
		got[a.Dewey] = true
	}
	for root := range cl.wantRoots {
		if !got[root] {
			return nil, fmt.Errorf("%s: root %s scores above the k-th boundary but is missing", cl.name, root)
		}
	}
	return &body, nil
}
