//! Multi-tenant serving: one isolated ingest pipeline per admitted producer.
//!
//! [`serve_tenants`] is the engine behind `trace daemon --listen`: it drives a
//! [`TenantServer`] accept/poll loop on the calling thread and binds every
//! admitted tenant to its *own* supervised pipeline — its own [`supervise`]
//! run with its own simulator state, fault ledger, checkpoint file and
//! verdict — running on a dedicated scoped thread. Isolation is structural:
//!
//! * Each pipeline consumes exactly the canonical byte stream the transport
//!   committed for its tenant, through an unchanged [`supervise`] — so a
//!   tenant's verdict is byte-identical to a solo file ingest of its stream
//!   (modulo timing-dependent `conn-*` markers), regardless of what other
//!   tenants do.
//! * A pipeline failure (decode error, shard quarantine escalation) kills
//!   only that tenant: the server sees the dead sink, closes the tenant, and
//!   keeps serving the rest.
//! * Backpressure is global but shedding is per-tenant: staged-but-unconsumed
//!   bytes count against [`TenantLimits::stage_budget`], and the server
//!   throttles reads (and therefore acks) to the heaviest tenants first —
//!   committed records are never dropped.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

use impress_workloads::source::{TraceSource, TransportEvent};
#[allow(unused_imports)] // doc links
use impress_workloads::transport::TenantLimits;
use impress_workloads::transport::{ServerPoll, TenantServer, TenantSink};

use crate::daemon::{supervise, write_checkpoint_durable, Checkpoint, DaemonOptions};
use crate::runner::Configuration;
use crate::trace_runner::IngestReport;

/// A [`TraceSource`] fed by the server thread over a channel.
///
/// Blocking `recv` is safe here: the source runs on the tenant's dedicated
/// pipeline thread, and the server closes the sending half (end-of-stream)
/// when the tenant finishes, is evicted, or the daemon drains.
#[derive(Debug)]
struct ChannelSource {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    staged: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<TransportEvent>>>,
}

impl TraceSource for ChannelSource {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        match self.rx.recv() {
            Ok(chunk) => {
                self.staged.fetch_sub(chunk.len() as u64, Ordering::AcqRel);
                self.buf = chunk;
                Ok(Some(&self.buf))
            }
            // Sender dropped: the server closed this tenant's stream.
            Err(_) => Ok(None),
        }
    }

    fn take_transport_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events.lock().expect("tenant event lock poisoned"))
    }
}

/// Server-side handle to one tenant's pipeline.
struct TenantPipe<'scope> {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    staged: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<TransportEvent>>>,
    handle: Option<ScopedJoinHandle<'scope, io::Result<IngestReport>>>,
}

/// The [`TenantSink`] gluing a [`TenantServer`] to per-tenant [`supervise`]
/// pipelines on scoped threads.
struct PipelineSink<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    configuration: &'env Configuration,
    options: &'env DaemonOptions,
    checkpoint: Option<&'env Path>,
    pipes: BTreeMap<u64, TenantPipe<'scope>>,
}

impl PipelineSink<'_, '_> {
    /// Checkpoint file for `tenant`: the first tenant owns the configured
    /// path verbatim (solo-compatible), later tenants get `<path>.t<id>`.
    fn checkpoint_path(&self, tenant: u64) -> Option<PathBuf> {
        self.checkpoint.map(|p| {
            if tenant == 1 {
                p.to_path_buf()
            } else {
                let mut name = p.as_os_str().to_owned();
                name.push(format!(".t{tenant}"));
                PathBuf::from(name)
            }
        })
    }

    /// Closes every stream and joins every pipeline into per-tenant reports.
    fn finish(mut self) -> Vec<TenantReport> {
        let mut reports = Vec::with_capacity(self.pipes.len());
        for (tenant, mut pipe) in std::mem::take(&mut self.pipes) {
            pipe.tx = None; // end-of-stream for any pipeline still reading
            let result = match pipe.handle.take().map(ScopedJoinHandle::join) {
                Some(Ok(Ok(report))) => Ok(report),
                Some(Ok(Err(e))) => Err(e.to_string()),
                Some(Err(_)) => Err("tenant pipeline panicked".to_string()),
                None => Err("tenant pipeline never started".to_string()),
            };
            reports.push(TenantReport { tenant, result });
        }
        reports
    }
}

impl TenantSink for PipelineSink<'_, '_> {
    fn open(&mut self, tenant: u64) -> io::Result<()> {
        let (tx, rx) = mpsc::channel();
        let staged = Arc::new(AtomicU64::new(0));
        let events = Arc::new(Mutex::new(Vec::new()));
        let source = ChannelSource {
            rx,
            buf: Vec::new(),
            staged: Arc::clone(&staged),
            events: Arc::clone(&events),
        };
        let mut opts = self.options.clone();
        if tenant != 1 {
            // A checkpoint resume pins one specific stream; it can only mean
            // the first tenant (the solo-compatible slot).
            opts.resume_from = None;
        }
        let cp_path = self.checkpoint_path(tenant);
        let configuration = self.configuration;
        let handle = self.scope.spawn(move || {
            let mut on_checkpoint = move |cp: &Checkpoint| match &cp_path {
                Some(path) => write_checkpoint_durable(path, cp),
                None => Ok(()),
            };
            supervise(source, configuration, &opts, &mut on_checkpoint)
        });
        self.pipes.insert(
            tenant,
            TenantPipe {
                tx: Some(tx),
                staged,
                events,
                handle: Some(handle),
            },
        );
        Ok(())
    }

    fn data(&mut self, tenant: u64, bytes: &[u8]) -> io::Result<()> {
        let pipe = self
            .pipes
            .get_mut(&tenant)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown tenant"))?;
        let tx = pipe
            .tx
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "tenant stream closed"))?;
        pipe.staged.fetch_add(bytes.len() as u64, Ordering::AcqRel);
        tx.send(bytes.to_vec()).map_err(|_| {
            // Receiver gone: the pipeline errored out or panicked. Undo the
            // staging charge and report the sink dead so the server closes
            // this tenant (and only this tenant).
            pipe.staged.fetch_sub(bytes.len() as u64, Ordering::AcqRel);
            io::Error::new(io::ErrorKind::BrokenPipe, "tenant pipeline died")
        })
    }

    fn event(&mut self, tenant: u64, event: TransportEvent) {
        if let Some(pipe) = self.pipes.get_mut(&tenant) {
            pipe.events
                .lock()
                .expect("tenant event lock poisoned")
                .push(event);
        }
    }

    fn close(&mut self, tenant: u64) {
        if let Some(pipe) = self.pipes.get_mut(&tenant) {
            pipe.tx = None; // dropping the sender is end-of-stream
        }
    }

    fn staged(&self, tenant: u64) -> u64 {
        self.pipes
            .get(&tenant)
            .map_or(0, |p| p.staged.load(Ordering::Acquire))
    }
}

/// Outcome of one tenant's pipeline.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant token the server assigned.
    pub tenant: u64,
    /// The pipeline's ingest report, or the error that killed it. A failed
    /// tenant is an isolated failure — the daemon kept serving the rest.
    pub result: Result<IngestReport, String>,
}

/// Outcome of a multi-tenant serving run: one report per admitted tenant, in
/// tenant-token order.
#[derive(Debug)]
pub struct MultiReport {
    /// Per-tenant reports.
    pub tenants: Vec<TenantReport>,
}

impl MultiReport {
    /// The report for `tenant`, if it was admitted.
    pub fn tenant(&self, tenant: u64) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Runs a multi-tenant serving session to completion: polls `server` on the
/// calling thread, spawning one supervised pipeline per admitted tenant, and
/// returns every tenant's report once the server finishes (drain flag, or
/// idle timeout with all tenants closed).
///
/// `options.resume_from` (if set) applies to the first tenant only; later
/// tenants always start fresh. `checkpoint` names the first tenant's
/// checkpoint file; tenant *i* > 1 checkpoints to `<checkpoint>.t<i>`.
///
/// # Errors
///
/// Propagates accept-loop I/O errors from [`TenantServer::poll`]. Per-tenant
/// pipeline failures are *not* errors — they are isolated into that tenant's
/// [`TenantReport::result`].
pub fn serve_tenants(
    server: &mut TenantServer,
    configuration: &Configuration,
    options: &DaemonOptions,
    checkpoint: Option<&Path>,
) -> io::Result<MultiReport> {
    std::thread::scope(|scope| {
        let mut sink = PipelineSink {
            scope,
            configuration,
            options,
            checkpoint,
            pipes: BTreeMap::new(),
        };
        let poll_result = loop {
            match server.poll(&mut sink) {
                Ok(ServerPoll::Done) => break Ok(()),
                Ok(ServerPoll::Busy) => {}
                Ok(ServerPoll::Idle) => std::thread::sleep(server.poll_interval()),
                Err(e) => break Err(e),
            }
        };
        // Always close and join every pipeline — even on a poll error —
        // otherwise a still-reading pipeline would deadlock the scope exit.
        let tenants = sink.finish();
        poll_result?;
        Ok(MultiReport { tenants })
    })
}
