package serve_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
)

// TestSessionNamesAreServerWide: a session name has one open stream in the
// whole server, not one per group, because its checkpoint file
// Dir/<hex(name)>.ckpt and its wire token "n"+hex(name) are server-wide.
// With BN-Norm and BN-Opt groups on one model, "s" open on BN-Norm refuses
// "s" on BN-Opt, before and after it checkpointed; once it closes, BN-Opt's
// "s" opens fresh; no close or refused open removes or rewrites the
// other group's file; and over HTTP a second named open is a 400 that
// leaves the first token serving its own stream.
func TestSessionNamesAreServerWide(t *testing.T) {
	base := models.PreActResNet18(rand.New(rand.NewSource(42)), models.ReproScale)
	x, _, _ := data.NewGenerator(1).NewStream(41, 4, data.Fog, 3).Next(4)
	ctx := context.Background()
	dir := t.TempDir()
	srv := serve.New(serve.Config{QueueCap: 8, Checkpoint: serve.CheckpointConfig{Every: 1, Dir: dir}})
	defer srv.Close()
	norm, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup(bnnorm): %v", err)
	}
	opt, err := srv.AddGroup(base, core.BNOpt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup(bnopt): %v", err)
	}
	// owner reads which group's episode the file of name holds; "" when
	// there is no file.
	owner := func(name string) string {
		blob, err := os.ReadFile(filepath.Join(dir, hex.EncodeToString([]byte(name))+".ckpt"))
		if err != nil {
			return ""
		}
		h, _, err := serialize.LoadState(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("checkpoint of %q does not parse: %v", name, err)
		}
		return h.Algo
	}
	refused := func(what string, err error) {
		t.Helper()
		var se *serve.Error
		if !errors.As(err, &se) || se.Code != serve.CodeBadRequest {
			t.Fatalf("%s: err = %v, want CodeBadRequest (the name is open in another group)", what, err)
		}
	}

	a, _, err := srv.OpenSession(norm, "s")
	if err != nil {
		t.Fatalf("OpenSession(bnnorm, s): %v", err)
	}
	_, _, err = srv.OpenSession(opt, "s")
	refused("OpenSession(bnopt, s) before any checkpoint", err)
	if _, err := a.ProcessSeq(ctx, x, 1); err != nil {
		t.Fatalf("bnnorm s seq 1: %v", err)
	}
	_, _, err = srv.OpenSession(opt, "s")
	refused("OpenSession(bnopt, s) after a checkpoint", err)
	if got := owner("s"); got != core.BNNorm.String() {
		t.Fatalf("after a refused open the file of s holds %q, want BN-Norm's episode", got)
	}

	// An anonymous BN-Opt stream opening and closing leaves the file alone.
	anon, err := srv.OpenStream(opt)
	if err != nil {
		t.Fatalf("OpenStream(bnopt): %v", err)
	}
	if tok := anon.Token(); len(tok) != 32 || strings.Trim(tok, "0123456789abcdef") != "" || a.Token() != "n73" {
		t.Fatalf("tokens %q (anonymous) and %q (s); want 32 hex characters and n73", tok, a.Token())
	}
	anon.Close()
	if got := owner("s"); got != core.BNNorm.String() {
		t.Fatalf("closing another stream changed the file of s to %q", got)
	}

	a.Close()
	if got := owner("s"); got != "" {
		t.Fatalf("closing BN-Norm's s left a checkpoint of %q", got)
	}
	b, resumed, err := srv.OpenSession(opt, "s")
	if err != nil || resumed {
		t.Fatalf("OpenSession(bnopt, s) after BN-Norm's closed: resumed = %v, err = %v; want a fresh session", resumed, err)
	}
	if got := b.Snapshot().AppliedSeq; got != 0 {
		t.Fatalf("fresh BN-Opt s AppliedSeq = %d, want 0", got)
	}
	if _, err := b.ProcessSeq(ctx, x, 1); err != nil {
		t.Fatalf("bnopt s seq 1: %v", err)
	}
	a.Close() // a second Close of the ended BN-Norm episode
	if got := owner("s"); got != core.BNOpt.String() {
		t.Fatalf("the file of s holds %q, want BN-Opt's episode", got)
	}
	b.Close()
	if got := owner("s"); got != "" {
		t.Fatalf("closing BN-Opt's s left a checkpoint of %q", got)
	}

	// A name has one token: "z" is "n7a", and "n7A" does not resume it.
	z, _, err := srv.OpenSession(norm, "z")
	if err != nil {
		t.Fatalf("OpenSession(bnnorm, z): %v", err)
	}
	if _, err := z.ProcessSeq(ctx, x, 1); err != nil {
		t.Fatalf("bnnorm z seq 1: %v", err)
	}
	if got, err := srv.Stream("n7a"); got != z || err != nil {
		t.Fatalf("Stream(n7a) = %v, %v; want z's stream", got, err)
	}
	var se *serve.Error
	if _, err := srv.Stream("n7A"); !errors.As(err, &se) || se.Code != serve.CodeNoGroup {
		t.Fatalf("Stream(n7A): err = %v, want CodeNoGroup", err)
	}
	z.Close()

	// Over the wire: the second named open is a 400, and the first token
	// still reaches the BN-Norm stream it was issued for.
	ts := httptest.NewServer(httpapi.New(srv, httpapi.Config{}))
	defer ts.Close()
	c := httpapi.NewClient(ts.URL, nil)
	first, _, err := c.OpenSession(base.Tag, "bnnorm", "h")
	if err != nil {
		t.Fatalf("open h on bnnorm: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/streams", "application/json",
		bytes.NewReader([]byte(`{"model":"`+base.Tag+`","algo":"bnopt","session":"h"}`)))
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("second named open of h: status %d, want 400", resp.StatusCode)
	}
	before, _ := srv.GroupSnapshot(norm)
	if _, err := first.ProcessSeq(x, 1); err != nil {
		t.Fatalf("first token after the refused open: %v", err)
	}
	after, _ := srv.GroupSnapshot(norm)
	if after.Requests != before.Requests+1 {
		t.Fatalf("the first token's submit served %d BN-Norm requests, want 1", after.Requests-before.Requests)
	}
	if _, err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
