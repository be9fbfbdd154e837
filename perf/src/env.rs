//! The fixed environment every workload runs in: one instance, one
//! in-process wire server on a loopback port, one closed-loop client
//! connection, and the loaded corpus.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asterix_net::{Client, Server, ServerConfig};
use asterixdb::dataset::DatasetRuntime;
use asterixdb::{ClusterConfig, Instance, Session};

use crate::gen::{self, Oracle, Scale};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, BoxError>;

pub const USERS: &str = "Perf.MugshotUsers";
pub const MESSAGES: &str = "Perf.MugshotMessages";

/// The paper's Schema DDL (Data definition 1), without Tweets.
const SCHEMA_DDL: &str = r#"
    create dataverse Perf;
    use dataverse Perf;
    create type EmploymentType as open {
        organization-name: string,
        start-date: date,
        end-date: date?
    };
    create type AddressType as open {
        street: string, city: string, state: string, zip: string, country: string
    };
    create type MugshotUserType as open {
        id: int64,
        alias: string,
        name: string,
        user-since: datetime,
        address: AddressType,
        friend-ids: {{ int64 }},
        employment: [EmploymentType]
    };
    create type MugshotMessageType as open {
        message-id: int64,
        author-id: int64,
        timestamp: datetime,
        in-response-to: int64?,
        sender-location: point?,
        tags: {{ string }},
        message: string
    };
    create dataset MugshotUsers(MugshotUserType) primary key id;
    create dataset MugshotMessages(MugshotMessageType) primary key message-id;
"#;

const INDEX_DDL: &str = r#"
    use dataverse Perf;
    create index msUserSinceIdx on MugshotUsers(user-since);
    create index msTimestampIdx on MugshotMessages(timestamp);
    create index msAuthorIdx on MugshotMessages(author-id) type btree;
"#;

/// What differs between the workloads' instances.
#[derive(Debug, Clone, Copy)]
pub struct EnvSpec {
    pub scale: Scale,
    /// Create the three secondary indexes before loading.
    pub indexed: bool,
    pub mem_component_budget: usize,
    pub buffer_cache_pages: usize,
}

/// Bytes in one buffer-cache page (`asterix_storage::cache::PAGE_SIZE`).
pub const PAGE_BYTES: usize = 4096;

impl EnvSpec {
    /// The full-size environment: 20 000 users (≈ 5 MB stored, fits the
    /// 8 MiB buffer cache) and 100 000 messages (≈ 27 MB stored, over 3× it).
    pub fn full(indexed: bool) -> EnvSpec {
        EnvSpec {
            scale: Scale { users: 20_000, messages: 100_000 },
            indexed,
            mem_component_budget: 4 << 20,
            buffer_cache_pages: 2048,
        }
    }

    /// 1/20 of everything, for `--smoke`.
    pub fn smoke(indexed: bool) -> EnvSpec {
        EnvSpec {
            scale: Scale { users: 1_000, messages: 5_000 },
            indexed,
            mem_component_budget: (4 << 20) / 20,
            buffer_cache_pages: 2048 / 20,
        }
    }

    pub fn cluster_config(&self, dir: &Path) -> ClusterConfig {
        let mut cfg = ClusterConfig::small(dir);
        // 2 nodes × 1 partition: as many partitions as the sandbox has cores.
        cfg.nodes = 2;
        cfg.partitions_per_node = 1;
        cfg.mem_component_budget = self.mem_component_budget;
        cfg.buffer_cache_pages = self.buffer_cache_pages;
        cfg.fsync_commits = false;
        cfg.metrics_sample_interval = None;
        cfg
    }
}

/// A fresh directory under `root` no other run or thread uses.
pub fn fresh_dir(root: &Path) -> std::io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir =
        root.join(format!("run-{}-{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Where runs keep their instance directories: beside the executable,
/// which Cargo puts inside the (git-ignored) target directory.
pub fn default_data_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perf-data")
}

extern "C" {
    // glibc's `sched.h`; `std` already links libc on Linux. A `cpu_set_t`
    // is 1024 bits.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and so every thread it starts from here
/// on, to the lowest-numbered CPU it may run on; returns that CPU, or
/// `None` if the kernel refused.
///
/// On the 2-vCPU sandbox the closed loop hands each request from the
/// client thread to the server's and on to the job's threads; when the
/// scheduler spreads those over both CPUs every hand-off is a cross-CPU
/// wake-up, which under a hypervisor costs more than the query (a point
/// lookup takes 0.25 ms spread out and 0.15 ms on one CPU) and varies
/// from run to run with where the threads happen to land. One CPU makes
/// the schedule repeat. What it gives up is stated in the README.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `bytes` bytes, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `bytes` bytes, the size passed.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

pub struct Env {
    pub spec: EnvSpec,
    pub cfg: ClusterConfig,
    pub instance: Arc<Instance>,
    /// The in-process session rungs 1–2 of the ladder run in.
    pub session: Session,
    pub server: Server,
    pub client: Client,
    pub users: Arc<DatasetRuntime>,
    pub messages: Arc<DatasetRuntime>,
    pub oracle: Oracle,
}

impl Env {
    /// Open an instance in `dir`, create the schema, stream the corpus in,
    /// flush, start the server and connect the one client.
    pub fn build(spec: EnvSpec, seed: u64, dir: &Path) -> Result<Env> {
        let cfg = spec.cluster_config(dir);
        let instance = Instance::open(cfg.clone())?;
        let session = instance.new_session();
        instance.execute_in(&session, SCHEMA_DDL)?;
        if spec.indexed {
            instance.execute_in(&session, INDEX_DDL)?;
        }
        let users = instance.dataset_in(&session, "MugshotUsers")?;
        let messages = instance.dataset_in(&session, "MugshotMessages")?;
        let oracle =
            gen::stream_corpus(seed, spec.scale, |u| users.insert(u), |m| messages.insert(m))?;
        users.flush_all()?;
        messages.flush_all()?;
        let server = Server::start(Arc::clone(&instance), ServerConfig::default())?;
        let client = Client::connect(server.local_addr(), None)?;
        Ok(Env { spec, cfg, instance, session, server, client, users, messages, oracle })
    }

    /// Hang up, stop the server and let go of the instance. The directory
    /// stays; the caller removes it or re-opens it.
    pub fn shut_down(self) -> Result<()> {
        let Env { instance, session, server, client, users, messages, .. } = self;
        client.close()?;
        server.shutdown();
        drop(server);
        drop((session, users, messages));
        drop(instance);
        Ok(())
    }

    /// Stored bytes of the users / messages datasets, all indexes.
    pub fn stored_bytes(&self) -> (u64, u64) {
        (self.users.size_bytes(), self.messages.size_bytes())
    }

    pub fn cache_bytes(&self) -> u64 {
        (self.spec.buffer_cache_pages * PAGE_BYTES) as u64
    }
}
