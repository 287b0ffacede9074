package cloud

import (
	"net/http"
	"testing"
)

func TestRPCDelete(t *testing.T) {
	env, remote := rpcFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("v"), Policy: "med:doctor"},
	})
	if err := remote.Store(rec); err != nil {
		t.Fatal(err)
	}
	// An empty owner is no wildcard: net/rpc has no gateway to reject it
	// before the store's owner check.
	for _, intruder := range []string{"intruder", ""} {
		if err := remote.Delete("r1", intruder); err == nil {
			t.Fatalf("delete as owner %q accepted over RPC", intruder)
		}
		if _, err := remote.Fetch("r1"); err != nil {
			t.Fatalf("record gone after refused delete as owner %q: %v", intruder, err)
		}
	}
	if err := remote.Delete("r1", "hospital"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Fetch("r1"); err == nil {
		t.Fatal("record still present after RPC delete")
	}
}

func TestHTTPDelete(t *testing.T) {
	env, ts := httpFixture(t)
	if _, err := env.AddAuthority("med", []string{"doctor"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("hospital")
	if err != nil {
		t.Fatal(err)
	}
	rec := buildRecord(t, env, owner, "r1", []UploadComponent{
		{Label: "x", Data: []byte("v"), Policy: "med:doctor"},
	})
	resp := postJSON(t, ts.URL+"/records", toHTTPRecord(rec))
	resp.Body.Close()

	doDelete := func(url string) int {
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := doDelete(ts.URL + "/records/r1"); code != http.StatusBadRequest {
		t.Fatalf("delete without owner: %d", code)
	}
	if code := doDelete(ts.URL + "/records/r1?owner=ghost"); code == http.StatusOK {
		t.Fatal("foreign delete accepted over HTTP")
	}
	if code := doDelete(ts.URL + "/records/r1?owner=hospital"); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	getResp, err := http.Get(ts.URL + "/records/r1")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("record still present after HTTP delete: %d", getResp.StatusCode)
	}
}
