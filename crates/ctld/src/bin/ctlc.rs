//! Command-line client for the routing-controller daemon.
//!
//! ```text
//! ctlc --socket /run/ctld.sock status
//! ctlc --endpoints /run/a.sock,/run/b.sock status
//! ctlc --socket S digest
//! ctlc --socket S tick 5000
//! ctlc --socket S fault 3 link-down:17 switch-down:2:1
//! ctlc --socket S paths [--epoch N] 0:63 12:3
//! ctlc --socket S chaos on|off
//! ctlc --socket S shutdown
//! ```
//!
//! Prints the server's JSON reply on stdout. Exit status: 0 for an
//! `ok` reply, 2 for a typed rejection, 1 for transport or usage
//! errors. `paths` without `--epoch` first fetches the current epoch
//! with a `status` round trip (the fenced-read idiom).
//!
//! All socket handling — framing, reconnect, overload backoff — lives
//! in [`lmpr_ctld::Client`]; this binary only parses arguments and
//! formats output. Reads (`status`, `digest`, `paths`) are answered from
//! the daemon's last published epoch, without waiting for a
//! reconvergence in progress; writes (`fault`, `tick`, `chaos`,
//! `shutdown`) queue for its controller thread.

#![forbid(unsafe_code)]

use lmpr_ctld::{ChangeSpec, Client, ClientConfig, Request, Response};

fn parse_change(spec: &str) -> Result<ChangeSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let u32of = |s: &str| {
        s.parse::<u32>()
            .map_err(|e| format!("bad id in {spec:?}: {e}"))
    };
    let u8of = |s: &str| {
        s.parse::<u8>()
            .map_err(|e| format!("bad level in {spec:?}: {e}"))
    };
    match parts.as_slice() {
        ["link-down", l] => Ok(ChangeSpec::LinkDown(u32of(l)?)),
        ["link-up", l] => Ok(ChangeSpec::LinkUp(u32of(l)?)),
        ["switch-down", lvl, r] => Ok(ChangeSpec::SwitchDown(u8of(lvl)?, u32of(r)?)),
        ["switch-up", lvl, r] => Ok(ChangeSpec::SwitchUp(u8of(lvl)?, u32of(r)?)),
        _ => Err(format!(
            "bad change {spec:?}; expected link-down:ID, link-up:ID, \
             switch-down:LEVEL:RANK or switch-up:LEVEL:RANK"
        )),
    }
}

fn parse_pair(spec: &str) -> Result<(u32, u32), String> {
    match spec.split_once(':') {
        Some((s, d)) => {
            let s = s.parse().map_err(|e| format!("bad pair {spec:?}: {e}"))?;
            let d = d.parse().map_err(|e| format!("bad pair {spec:?}: {e}"))?;
            Ok((s, d))
        }
        None => Err(format!("bad pair {spec:?}; expected SRC:DST")),
    }
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoints: Vec<std::path::PathBuf> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--socket" {
            let socket = argv
                .get(i + 1)
                .cloned()
                .ok_or("--socket requires a value")?;
            endpoints = vec![socket.into()];
            i += 2;
        } else if argv[i] == "--endpoints" {
            let spec = argv
                .get(i + 1)
                .cloned()
                .ok_or("--endpoints requires a value")?;
            endpoints = spec
                .split(',')
                .filter(|p| !p.is_empty())
                .map(std::path::PathBuf::from)
                .collect();
            if endpoints.is_empty() {
                return Err("--endpoints requires at least one path".to_owned());
            }
            i += 2;
        } else {
            rest.push(argv[i].clone());
            i += 1;
        }
    }
    if endpoints.is_empty() || rest.is_empty() {
        return Err(
            "usage: ctlc (--socket PATH | --endpoints A,B,...) <command>\n  \
             reads:  status | digest | paths [--epoch N] SRC:DST...\n  \
             writes: tick T | fault ID CHANGE... | chaos on|off | shutdown"
                .to_owned(),
        );
    }
    let mut client = Client::with_config(ClientConfig::with_endpoints(endpoints));

    let cmd = rest[0].as_str();
    let tail = &rest[1..];
    let req = match cmd {
        "status" => Request::Status,
        "digest" => Request::Digest,
        "shutdown" => Request::Shutdown,
        "tick" => {
            let to = tail
                .first()
                .ok_or("tick requires a target time")?
                .parse()
                .map_err(|e| format!("bad tick target: {e}"))?;
            Request::Tick { to }
        }
        "chaos" => {
            let on = match tail.first().map(String::as_str) {
                Some("on") => true,
                Some("off") => false,
                _ => return Err("chaos requires on|off".to_owned()),
            };
            Request::Chaos { fail_certs: on }
        }
        "fault" => {
            let batch_id = tail
                .first()
                .ok_or("fault requires a batch id")?
                .parse()
                .map_err(|e| format!("bad batch id: {e}"))?;
            let mut changes = Vec::new();
            for spec in &tail[1..] {
                changes.push(parse_change(spec)?);
            }
            Request::Fault {
                batch_id,
                gen: None,
                changes,
            }
        }
        "paths" => {
            let mut epoch: Option<u64> = None;
            let mut pairs = Vec::new();
            let mut j = 0;
            while j < tail.len() {
                match tail[j].as_str() {
                    "--epoch" => {
                        epoch = Some(
                            tail.get(j + 1)
                                .ok_or("--epoch requires a value")?
                                .parse()
                                .map_err(|e| format!("bad epoch: {e}"))?,
                        );
                        j += 2;
                    }
                    spec => {
                        pairs.push(parse_pair(spec)?);
                        j += 1;
                    }
                }
            }
            let epoch = match epoch {
                Some(e) => e,
                // Fenced-read idiom: learn the current epoch first.
                None => client.current_epoch().map_err(|e| e.to_string())?,
            };
            Request::Paths {
                epoch,
                deadline_ms: None,
                pairs,
            }
        }
        other => return Err(format!("unknown command {other:?}")),
    };

    let (text, resp) = client.request(&req).map_err(|e| e.to_string())?;
    println!("{text}");
    Ok(match resp {
        Response::Error { .. } => 2,
        _ => 0,
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ctlc: {e}");
            std::process::exit(1);
        }
    }
}
