//! Chaos/robustness integration tests for the `etpnd` service core:
//! concurrent traffic, injected panics, deadline expiries, malformed
//! HTTP, load shedding, circuit breaking, graceful shutdown, and
//! crash-safe journal recovery — asserting the full status taxonomy and
//! zero aborts throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use etpn::serve::{
    request, request_with_headers, start, BreakerConfig, ClientResponse, ServerConfig, ServerHandle,
};

const ADDER: &str = "design adder { in a, b; out s; s = a + b; }";
/// `gcd(1, 0)` never converges (`x=1, y=0` loops on `x = x - y`), which
/// makes it a deterministic wall-clock burner for deadline tests.
const GCD: &str = "design gcd {\n    in a, b;\n    out g;\n    reg x, y;\n    x = a;\n    y = b;\n    while (x != y) {\n        if (x > y) {\n            x = x - y;\n        } else {\n            y = y - x;\n        }\n    }\n    g = x;\n}";

const T: Duration = Duration::from_secs(10);

fn post(addr: &std::net::SocketAddr, path: &str, body: &str) -> ClientResponse {
    request(&addr.to_string(), "POST", path, Some(body), T).expect("request transport")
}

fn get(addr: &std::net::SocketAddr, path: &str) -> ClientResponse {
    request(&addr.to_string(), "GET", path, None, T).expect("request transport")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("etpn-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The happy-path taxonomy: 200/201 on success, 400/404/405/413 on
/// client faults — all exercised over one server.
#[test]
fn status_taxonomy_for_client_faults() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;

    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    // Re-registration is idempotent, keyed by fingerprint.
    let again = post(&addr, "/v1/designs", &src_body(ADDER));
    assert_eq!(again.status, 200);
    assert!(again.body.contains("\"created\": false"));

    let run = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(run.status, 200, "{}", run.body);
    assert!(run.body.contains('7'), "{}", run.body);

    // Client-fault taxonomy.
    assert_eq!(post(&addr, "/v1/run", "{ not json").status, 400);
    assert_eq!(post(&addr, "/v1/run", r#"{"design":"nope"}"#).status, 404);
    assert_eq!(
        post(&addr, "/v1/run", r#"{"design":"adder","policy":"bogus"}"#).status,
        400
    );
    assert_eq!(
        post(&addr, "/v1/run", r#"{"design":"adder","backend":"bogus"}"#).status,
        400
    );
    assert_eq!(post(&addr, "/v1/nosuch", "{}").status, 404);
    assert_eq!(get(&addr, "/v1/run").status, 405);
    assert_eq!(
        post(&addr, "/v1/designs", r#"{"source":"design broken {"}"#).status,
        422
    );

    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    let stats = handle.shutdown();
    assert!(stats.contains("serve.admitted"), "{stats}");
}

fn src_body(src: &str) -> String {
    etpn::core::json::Json::obj([("source", etpn::core::json::Json::Str(src.to_string()))]).pretty()
}

/// Raw malformed HTTP (not even a request line) answers 400, and an
/// absurd Content-Length answers 413 — without tying up the worker.
#[test]
fn malformed_http_is_rejected_not_crashed() {
    let cfg = ServerConfig {
        request_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"COMPLETE NONSENSE\r\n\r\n").unwrap();
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"POST /v1/run HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");

    // The server is still fully live afterwards.
    assert_eq!(get(&addr, "/healthz").status, 200);
    handle.shutdown();
}

/// A request whose wall-clock deadline expires mid-simulation answers 408
/// with the budget termination, and does not trip the design's breaker.
#[test]
fn deadline_expiry_is_408_not_a_design_fault() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    for _ in 0..3 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":120}"#,
        );
        assert_eq!(r.status, 408, "{}", r.body);
        assert!(r.body.contains("budget"), "{}", r.body);
    }
    // Three expiries in a row must NOT have opened the breaker: a fast
    // request still succeeds.
    let ok = post(
        &addr,
        "/v1/run",
        r#"{"design":"gcd","inputs":{"a":[12],"b":[8]}}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert!(ok.body.contains('4'), "{}", ok.body);
    handle.shutdown();
}

/// Injected panics exhaust the retry budget (500), trip the per-design
/// breaker (503 + Retry-After) while diagnose-only verbs stay open, and a
/// half-open probe after the cool-down restores service.
#[test]
fn breaker_trips_on_panics_and_recovers_half_open() {
    let cfg = ServerConfig {
        allow_chaos: true,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(300),
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // Two retry-exhausted panics trip the threshold-2 breaker.
    for _ in 0..2 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","chaos":"panic","inputs":{"a":[1],"b":[2]}}"#,
        );
        assert_eq!(r.status, 500, "{}", r.body);
    }

    // Open: simulation verbs shed with Retry-After…
    let denied = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[1],"b":[2]}}"#,
    );
    assert_eq!(denied.status, 503, "{}", denied.body);
    assert!(denied.header("retry-after").is_some());
    assert_eq!(
        post(&addr, "/v1/check", r#"{"design":"adder"}"#).status,
        503
    );
    // …while the diagnose-only verbs stay open (degraded mode).
    assert_eq!(post(&addr, "/v1/cov", r#"{"design":"adder"}"#).status, 200);
    assert_eq!(post(&addr, "/v1/lint", r#"{"design":"adder"}"#).status, 200);

    // After the cool-down a half-open probe succeeds and closes the loop.
    std::thread::sleep(Duration::from_millis(450));
    let probe = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(probe.status, 200, "{}", probe.body);
    let after = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[5],"b":[6]}}"#,
    );
    assert_eq!(after.status, 200, "{}", after.body);

    // A chaos panic that only strikes the compiled backend degrades to the
    // interpreter and still answers 200 (fallback consumes no retry).
    let fell_back = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","chaos":"panic_compiled","inputs":{"a":[1],"b":[1]}}"#,
    );
    assert_eq!(fell_back.status, 200, "{}", fell_back.body);
    assert!(fell_back.body.contains("interp"), "{}", fell_back.body);

    let stats = handle.shutdown();
    assert!(stats.contains("serve.job_panics"), "{stats}");
    assert!(stats.contains("serve.backend_fallbacks"), "{stats}");
}

/// `/v1/lint` is computed once per registered design and reused: every
/// catalogue design answers twice with the counts of a fresh
/// `lint_compiled`, and the memo never freezes the live `breaker` field.
#[test]
fn lint_is_memoised_per_design_but_breaker_stays_live() {
    let cfg = ServerConfig {
        allow_chaos: true,
        breaker: BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(60),
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    let lint = |design: &str| {
        let r = post(&addr, "/v1/lint", &format!(r#"{{"design":"{design}"}}"#));
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = etpn::core::json::parse(&r.body).expect("lint JSON parses");
        let n = |k: &str| doc.get(k).unwrap().as_i64().unwrap() as usize;
        let breaker = doc.get("breaker").unwrap().as_str().unwrap().to_string();
        ((n("errors"), n("warnings"), n("notes")), breaker)
    };
    for w in etpn::workloads::catalog() {
        assert_eq!(post(&addr, "/v1/designs", &src_body(&w.source)).status, 201);
        let d = etpn::synth::compile_source(&w.source).unwrap();
        let fresh = etpn::lint::lint_compiled(&d, &etpn::lint::LintConfig::default()).counts();
        for _ in 0..2 {
            assert_eq!(lint(&d.name), (fresh, "closed".to_string()), "{}", w.name);
        }
    }
    // One retry-exhausted panic trips the threshold-1 breaker; the next
    // lint, answered from the memo, still reports it open.
    let r = post(&addr, "/v1/run", r#"{"design":"gcd","chaos":"panic"}"#);
    assert_eq!(r.status, 500, "{}", r.body);
    let (counts, breaker) = lint("gcd");
    assert_eq!(breaker, "open");
    assert_eq!((counts, breaker), lint("gcd"));
    handle.shutdown();
}

/// A malformed request that lands as the half-open probe must not wedge
/// the breaker: the 400 abstains (the design was never exercised), the
/// probe re-arms, and the next good request recovers the design — the
/// exact scenario that used to deny simulation verbs forever.
#[test]
fn malformed_probe_does_not_wedge_the_breaker() {
    let cfg = ServerConfig {
        allow_chaos: true,
        breaker: BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_millis(200),
            ..BreakerConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // One retry-exhausted panic trips the threshold-1 breaker.
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","chaos":"panic","inputs":{"a":[1],"b":[2]}}"#,
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert_eq!(
        post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","inputs":{"a":[1],"b":[2]}}"#
        )
        .status,
        503
    );

    // After the cool-down, spend the half-open probe on a request with
    // bad simulation params: a 400 that never simulates anything.
    std::thread::sleep(Duration::from_millis(300));
    let bad = post(&addr, "/v1/run", r#"{"design":"adder","policy":"bogus"}"#);
    assert_eq!(bad.status, 400, "{}", bad.body);

    // The probe must have re-armed: the next good request is admitted
    // (as a fresh probe) and closes the breaker — not 503 forever.
    let ok = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[2],"b":[3]}}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);
    handle.shutdown();
}

/// `/v1/check` runs its whole battery against one absolute deadline:
/// a wall-clock burner with many seeds answers in the order of the
/// request deadline, not seeds × deadline with the worker pinned.
#[test]
fn check_battery_shares_one_absolute_deadline() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    let started = std::time::Instant::now();
    let r = post(
        &addr,
        "/v1/check",
        r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"seeds":8,"deadline_ms":400}"#,
    );
    let elapsed = started.elapsed();
    // 17 battery jobs × 400 ms each would be ~7 s on the 2-worker fleet;
    // the absolute deadline keeps the whole batch near one deadline.
    assert!([200, 408].contains(&r.status), "{} {}", r.status, r.body);
    assert!(elapsed < Duration::from_secs(3), "battery took {elapsed:?}");
    handle.shutdown();
}

/// Registering a structurally different design under an already-taken
/// name is refused with 409: one tenant cannot silently re-point
/// another tenant's name-based lookups.
#[test]
fn name_collision_is_409_not_a_silent_hijack() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    let hijack = post(
        &addr,
        "/v1/designs",
        &src_body("design adder { in a, b; out s; s = a - b; }"),
    );
    assert_eq!(hijack.status, 409, "{}", hijack.body);

    // Name-based lookups still reach the original design.
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains('7'), "{}", r.body);
    handle.shutdown();
}

/// With one worker and a one-deep queue, a slow request forces overflow
/// connections to be shed inline with 429 + Retry-After — bounded
/// admission, not unbounded buffering.
#[test]
fn overload_sheds_429_with_retry_after() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    // Occupy the single worker with a deadline-bounded burner.
    let slow = std::thread::spawn(move || {
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":800}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(150));

    let floods: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                post(
                    &addr,
                    "/v1/run",
                    r#"{"design":"gcd","inputs":{"a":[6],"b":[4]}}"#,
                )
            })
        })
        .collect();
    let floods: Vec<ClientResponse> = floods
        .into_iter()
        .map(|t| t.join().expect("no flood thread aborts"))
        .collect();
    let statuses: Vec<u16> = floods.iter().map(|r| r.status).collect();
    let shed: Vec<_> = floods.iter().filter(|r| r.status == 429).collect();
    assert!(!shed.is_empty(), "expected shed traffic, got {statuses:?}");
    assert!(
        statuses.iter().all(|s| [200, 429].contains(s)),
        "unexpected statuses {statuses:?}"
    );
    // Every shed response carries both the backoff hint and a trace id
    // the debug ring can answer for.
    for r in &shed {
        assert_eq!(r.header("retry-after"), Some("1"), "{:?}", r.headers);
        assert!(
            r.header("x-etpn-trace-id").is_some_and(|t| t.len() == 32),
            "{:?}",
            r.headers
        );
    }
    let shed_trace = shed[0].header("x-etpn-trace-id").unwrap();
    let ring = get(&addr, "/v1/debug/requests?verb=shed");
    assert_eq!(ring.status, 200, "{}", ring.body);
    assert!(ring.body.contains(shed_trace), "{}", ring.body);

    let slow_resp = slow.join().expect("no slow thread abort");
    assert_eq!(slow_resp.status, 408, "{}", slow_resp.body);

    let stats = handle.shutdown();
    assert!(stats.contains("serve.shed"), "{stats}");
    // Shed queue-wait time lands in its own labelled histogram (the JSON
    // export escapes the quotes around the label value).
    assert!(
        stats.contains(r#"serve.queue_wait_us{outcome=\"shed\"}"#),
        "{stats}"
    );
}

/// Every response — success, client fault, missing endpoint, wrong
/// method, deadline expiry — carries an `X-Etpn-Trace-Id`, each id is
/// retrievable from `GET /v1/debug/requests`, and a valid client-supplied
/// id is honored end to end.
#[test]
fn every_response_carries_a_retrievable_trace_id() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;

    let responses = [
        post(&addr, "/v1/designs", &src_body(ADDER)),
        post(&addr, "/v1/designs", &src_body(GCD)),
        post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
        ),
        post(&addr, "/v1/run", "{ not json"),
        post(&addr, "/v1/run", r#"{"design":"nope"}"#),
        post(&addr, "/v1/nosuch", "{}"),
        get(&addr, "/v1/run"),
        // A mid-run deadline expiry (408).
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":100}"#,
        ),
    ];
    let expected = [201u16, 201, 200, 400, 404, 404, 405, 408];
    let mut ids = Vec::new();
    for (r, want) in responses.iter().zip(expected) {
        assert_eq!(r.status, want, "{}", r.body);
        let id = r
            .header("x-etpn-trace-id")
            .unwrap_or_else(|| panic!("no trace id on {}: {:?}", r.status, r.headers));
        assert_eq!(id.len(), 32, "{id}");
        ids.push(id.to_string());
    }
    let distinct: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(distinct.len(), ids.len(), "trace ids must be unique");

    // A valid client-supplied id is echoed back verbatim…
    let supplied = "00000000000000000000000000c0ffee";
    let r = request_with_headers(
        &addr.to_string(),
        "POST",
        "/v1/run",
        Some(r#"{"design":"adder","inputs":{"a":[1],"b":[1]}}"#),
        &[("X-Etpn-Trace-Id", supplied)],
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-etpn-trace-id"), Some(supplied));
    ids.push(supplied.to_string());
    // …while a junk one is replaced with a fresh id.
    let r = request_with_headers(
        &addr.to_string(),
        "POST",
        "/v1/cov",
        Some(r#"{"design":"adder"}"#),
        &[("X-Etpn-Trace-Id", "not-hex-at-all")],
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let fresh = r.header("x-etpn-trace-id").expect("fresh id");
    assert_eq!(fresh.len(), 32);
    ids.push(fresh.to_string());

    // Every issued id is retrievable from the debug ring.
    let ring = get(&addr, "/v1/debug/requests?limit=200");
    assert_eq!(ring.status, 200, "{}", ring.body);
    for id in &ids {
        assert!(
            ring.body.contains(id),
            "trace {id} missing from {}",
            ring.body
        );
    }
    handle.shutdown();
}

/// `GET /v1/debug/requests` filters compose over live traffic: by verb,
/// by status, by design, by latency floor.
#[test]
fn debug_requests_endpoint_filters() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    for _ in 0..3 {
        assert_eq!(
            post(
                &addr,
                "/v1/run",
                r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#
            )
            .status,
            200
        );
    }
    assert_eq!(post(&addr, "/v1/run", r#"{"design":"nope"}"#).status, 404);
    assert_eq!(post(&addr, "/v1/cov", r#"{"design":"adder"}"#).status, 200);

    let parse = |body: &str| etpn::core::json::parse(body).expect("debug JSON parses");
    let runs = parse(&get(&addr, "/v1/debug/requests?verb=run&limit=100").body);
    let arr = runs.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), 4, "3 × 200 + 1 × 404");
    for e in arr {
        assert_eq!(e.get("verb").unwrap().as_str().unwrap(), "run");
    }

    let not_found = parse(&get(&addr, "/v1/debug/requests?status=404").body);
    let arr = not_found.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), 1);

    let by_design = parse(&get(&addr, "/v1/debug/requests?design=adder&limit=100").body);
    let arr = by_design.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(
        arr.len(),
        5,
        "register + 3 runs + 1 cov resolved the design"
    );

    // An absurd latency floor matches nothing; a bad filter value is 400.
    let none = parse(&get(&addr, "/v1/debug/requests?min_latency_us=999999999999").body);
    assert!(none.get("requests").unwrap().as_arr().unwrap().is_empty());
    assert_eq!(get(&addr, "/v1/debug/requests?limit=zero").status, 400);
    assert_eq!(post(&addr, "/v1/debug/requests", "{}").status, 405);
    handle.shutdown();
}

/// The tentpole's cross-thread guarantee: a `/v1/check` with `jobs: 4`
/// yields a span tree — retrieved live via `GET /v1/debug/trace/<id>` —
/// holding exactly one `fleet.job` child span per battery job, all
/// parented under the request's own `fleet.batch` span, even while
/// concurrent mixed traffic interleaves on the same fleet and server.
#[test]
fn check_span_tree_has_one_child_span_per_fleet_job() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    // Concurrent mixed traffic in the background.
    let busy: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..4 {
                    let r = if (i + j) % 2 == 0 {
                        post(
                            &addr,
                            "/v1/run",
                            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
                        )
                    } else {
                        post(&addr, "/v1/cov", r#"{"design":"adder"}"#)
                    };
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            })
        })
        .collect();

    // seeds:2 → 1 + 2×2 = 5 battery jobs on a 4-worker fleet.
    let check = post(
        &addr,
        "/v1/check",
        r#"{"design":"adder","inputs":{"a":[3],"b":[4]},"seeds":2,"jobs":4}"#,
    );
    assert_eq!(check.status, 200, "{}", check.body);
    let trace_id = check
        .header("x-etpn-trace-id")
        .expect("trace id")
        .to_string();

    let trace = get(&addr, &format!("/v1/debug/trace/{trace_id}"));
    assert_eq!(trace.status, 200, "{}", trace.body);
    let doc = etpn::core::json::parse(&trace.body).expect("chrome trace parses");
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("trace_id")
            .unwrap()
            .as_str()
            .unwrap(),
        trace_id,
        "span tree belongs to the request's trace id"
    );
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let named = |n: &str| -> Vec<&etpn::core::json::Json> {
        events
            .iter()
            .filter(|e| e.get("name").map(|v| v.as_str() == Ok(n)).unwrap_or(false))
            .collect()
    };
    let batches = named("fleet.batch");
    assert_eq!(batches.len(), 1, "{}", trace.body);
    let batch_id = batches[0]
        .get("args")
        .unwrap()
        .get("span")
        .unwrap()
        .as_i64()
        .unwrap();
    let jobs = named("fleet.job");
    assert_eq!(jobs.len(), 5, "one child span per battery job");
    for job in &jobs {
        let args = job.get("args").unwrap();
        assert_eq!(
            args.get("parent").unwrap().as_i64().unwrap(),
            batch_id,
            "fleet jobs parent under the request's batch span"
        );
    }
    // The request spine is present too.
    assert_eq!(named("queue.wait").len(), 1);
    assert_eq!(named("route").len(), 1);

    // Unknown/garbage ids answer 404/400, not 500.
    assert_eq!(
        get(&addr, "/v1/debug/trace/00000000000000000000000000000001").status,
        404
    );
    assert_eq!(get(&addr, "/v1/debug/trace/garbage").status, 400);

    for t in busy {
        t.join().expect("no background aborts");
    }
    handle.shutdown();
}

/// Concurrent mixed traffic (run/check/cov, both backends) completes with
/// a clean taxonomy, zero route panics and zero aborts, and the policy
/// battery agrees under the shared cache.
#[test]
fn concurrent_mixed_traffic_is_clean() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);

    let threads: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..5 {
                    let r = match (i + j) % 3 {
                        0 => post(
                            &addr,
                            "/v1/run",
                            r#"{"design":"adder","backend":"interp","inputs":{"a":[3],"b":[4]}}"#,
                        ),
                        1 => post(
                            &addr,
                            "/v1/check",
                            r#"{"design":"adder","inputs":{"a":[3],"b":[4]}}"#,
                        ),
                        _ => post(&addr, "/v1/cov", r#"{"design":"adder"}"#),
                    };
                    assert_eq!(r.status, 200, "{}", r.body);
                    if (i + j) % 3 == 1 {
                        assert!(r.body.contains("\"agree\": true"), "{}", r.body);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no worker-thread aborts");
    }

    let stats = handle.shutdown();
    // Route panics are counted; the counter must be absent (never created)
    // or zero.
    assert!(
        !stats.contains("serve.route_panics") || stats.contains("\"serve.route_panics\": 0"),
        "{stats}"
    );
}

/// Coverage survives shutdown → corrupted-tail journal → restart: the
/// torn tail is truncated, the valid prefix replays, and a re-registered
/// design resumes its accumulated coverage.
#[test]
fn restart_recovers_journals_and_accumulates_coverage() {
    let dir = scratch("restart");

    let first = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = first.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    for _ in 0..2 {
        let r = post(
            &addr,
            "/v1/run",
            r#"{"design":"adder","backend":"interp","inputs":{"a":[3],"b":[4]}}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 2"), "{}", cov.body);
    first.shutdown();

    // Simulate a crash mid-append: torn garbage on the journal tail.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("cov.journal"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }

    let second = start(ServerConfig {
        data_dir: Some(dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = second.addr;
    let stats = second.stats_json();
    assert!(
        !stats.contains("\"serve.recovered.cov_frames\": 0"),
        "no coverage frames recovered: {stats}"
    );
    // Re-registering the same source reunites the design with its
    // recovered coverage, and new runs keep counting upward.
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 2"), "{}", cov.body);
    let r = post(
        &addr,
        "/v1/run",
        r#"{"design":"adder","inputs":{"a":[5],"b":[6]}}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    let cov = post(&addr, "/v1/cov", r#"{"design":"adder"}"#);
    assert!(cov.body.contains("\"runs\": 3"), "{}", cov.body);
    second.shutdown();
}

/// Graceful shutdown drains: requests admitted before the drain complete,
/// the listener closes, and the final stats export is returned.
#[test]
fn shutdown_drains_admitted_work() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(GCD)).status, 201);

    // Admit a deadline-bounded slow request, then immediately drain.
    let slow = std::thread::spawn(move || {
        post(
            &addr,
            "/v1/run",
            r#"{"design":"gcd","inputs":{"a":[1],"b":[0]},"steps":999999999,"deadline_ms":400}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown();

    // The in-flight request was answered, not dropped.
    let r = slow.join().expect("no slow thread abort");
    assert_eq!(r.status, 408, "{}", r.body);
    assert!(stats.contains("serve.admitted"), "{stats}");

    // The listener is gone: new connections are refused (or reset).
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// Run `shutdown` on a helper thread and wait at most `limit` for its
/// stats export, so a lost acceptor or worker wake-up fails the test
/// instead of hanging it.
fn shutdown_within(handle: ServerHandle, limit: Duration) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    let stats = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("shutdown did not return within {limit:?}"));
    helper.join().expect("shutdown thread panicked");
    stats
}

/// A counter from a stats-JSON export (0 when it was never bumped).
fn counter(stats: &str, name: &str) -> i64 {
    let doc = etpn::core::json::parse(stats).expect("stats export parses");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .map_or(0, |v| v.as_i64().expect("integer counter"))
}

/// An idle server's acceptor is parked in a blocking `accept()` and its
/// workers in a plain condvar wait; `shutdown` wakes both.
#[test]
fn idle_shutdown_returns_promptly() {
    let handle = start(ServerConfig::default()).unwrap();
    // Let the acceptor and workers park before the drain.
    std::thread::sleep(Duration::from_millis(100));
    let stats = shutdown_within(handle, Duration::from_secs(1));
    assert_eq!(counter(&stats, "serve.admitted"), 0, "{stats}");
}

/// Bound to the unspecified address, the drain wake-up connects through
/// loopback on the same port.
#[test]
fn idle_shutdown_of_a_wildcard_bound_server_returns_promptly() {
    let handle = start(ServerConfig {
        addr: "0.0.0.0:0".into(),
        ..ServerConfig::default()
    })
    .unwrap();
    assert!(handle.addr.ip().is_unspecified());
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], handle.addr.port()));
    assert_eq!(get(&loopback, "/healthz").status, 200);
    std::thread::sleep(Duration::from_millis(100));
    let stats = shutdown_within(handle, Duration::from_secs(1));
    assert_eq!(counter(&stats, "serve.admitted"), 1, "{stats}");
}

/// The drain wake-up connection is dropped unadmitted: `serve.admitted`
/// counts exactly the requests the test sent.
#[test]
fn drain_wake_connection_is_never_admitted() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr;
    assert_eq!(post(&addr, "/v1/designs", &src_body(ADDER)).status, 201);
    for a in 0..5 {
        let body = format!(r#"{{"design":"adder","inputs":{{"a":[{a}],"b":[1]}}}}"#);
        assert_eq!(post(&addr, "/v1/run", &body).status, 200);
    }
    let stats = shutdown_within(handle, Duration::from_secs(1));
    assert_eq!(counter(&stats, "serve.admitted"), 6, "{stats}");
    assert_eq!(counter(&stats, "serve.status.2xx"), 6, "{stats}");
    assert_eq!(counter(&stats, "serve.read_failures"), 0, "{stats}");
}

/// A spawned `etpnd` process, killed (and reaped) if the test fails
/// before it exits on its own.
#[cfg(target_os = "linux")]
struct Daemon(std::process::Child);

#[cfg(target_os = "linux")]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(target_os = "linux")]
impl Daemon {
    /// Spawn `etpnd` through `sh` (so a test can set `ulimit`s first) and
    /// wait for its `listening on ADDR` line.
    fn spawn(ulimit: &str) -> (Self, std::net::SocketAddr) {
        use std::io::BufRead;
        use std::process::{Command, Stdio};
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "{ulimit} exec \"$0\" --addr 127.0.0.1:0 --no-access-log"
            ))
            .arg(env!("CARGO_BIN_EXE_etpnd"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn etpnd");
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let daemon = Self(child);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .parse()
            .unwrap();
        (daemon, addr)
    }

    /// `voluntary_ctxt_switches` of the named thread, from `/proc`.
    fn voluntary_switches(&self, thread: &str) -> u64 {
        let tasks = format!("/proc/{}/task", self.0.id());
        // Threads name themselves once running; give them a moment.
        for _ in 0..100 {
            for task in std::fs::read_dir(&tasks).unwrap() {
                let dir = task.unwrap().path();
                let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
                if comm.trim() != thread {
                    continue;
                }
                let status = std::fs::read_to_string(dir.join("status")).unwrap();
                return status
                    .lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                    .expect("status has voluntary_ctxt_switches")
                    .trim()
                    .parse()
                    .unwrap();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("no thread {thread} under {tasks}");
    }

    /// Send `SIGTERM`; wait at most `limit` for the exit; return its
    /// status and stderr.
    fn terminate_within(mut self, limit: Duration) -> (std::process::ExitStatus, String) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill(2)` takes two plain integers and touches no memory
        // of ours; the pid is our own child, not yet reaped, so it cannot
        // name a recycled process.
        assert_eq!(unsafe { kill(self.0.id() as i32, SIGTERM) }, 0);
        let deadline = std::time::Instant::now() + limit;
        let status = loop {
            if let Some(status) = self.0.try_wait().unwrap() {
                break status;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "etpnd did not exit within {limit:?} of SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        self.0
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        (status, stderr)
    }
}

/// The real daemon: an idle acceptor blocks in `accept()` instead of
/// polling (a 2 ms poll woke it ~250 times in 500 ms), and `SIGTERM`
/// still drains it to a clean exit.
#[cfg(target_os = "linux")]
#[test]
fn etpnd_idles_without_wakeups_and_drains_on_sigterm() {
    let (daemon, addr) = Daemon::spawn("");
    assert_eq!(get(&addr, "/healthz").status, 200);
    let before = daemon.voluntary_switches("etpnd-accept");
    std::thread::sleep(Duration::from_millis(500));
    let woke = daemon.voluntary_switches("etpnd-accept") - before;
    assert!(woke <= 5, "idle acceptor woke {woke} times in 500 ms");

    let (status, stderr) = daemon.terminate_within(Duration::from_secs(2));
    assert!(status.success(), "{status:?}: {stderr}");
    assert!(stderr.contains("drained, exiting"), "{stderr}");
}

/// Running out of file descriptors makes `accept()` fail; the acceptor
/// backs off, counts each failure in `serve.accept_errors`, and serves
/// again once descriptors are freed.
#[cfg(target_os = "linux")]
#[test]
fn etpnd_counts_accept_errors_when_out_of_descriptors() {
    let (daemon, addr) = Daemon::spawn("ulimit -n 16;");
    // Idle connections pin one descriptor each in the admission queue
    // (the workers wait on their unsent requests) until the table is full.
    let hogs: Vec<TcpStream> = (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(200));
    drop(hogs);
    let stats = get(&addr, "/stats");
    assert_eq!(stats.status, 200, "{}", stats.body);
    assert!(
        counter(&stats.body, "serve.accept_errors") > 0,
        "{}",
        stats.body
    );
    let metrics = get(&addr, "/metrics").body;
    assert!(metrics.contains("\netpn_serve_accept_errors "), "{metrics}");

    let (status, stderr) = daemon.terminate_within(Duration::from_secs(2));
    assert!(status.success(), "{status:?}: {stderr}");
}
