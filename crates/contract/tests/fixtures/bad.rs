//! One item per banned construct, each expecting the lint that bans
//! it, with the rule id as the reason. Every clippy.toml entry has its
//! own item, so deleting any entry leaves an expectation unfulfilled.
//! An item that breaks two rules expects both.

use rayon::iter::ParallelIterator;
use sp_stats::SpRng;

// D1: SipHash keys are random per process, so iteration order varies.

#[expect(clippy::disallowed_types, reason = "D1")]
pub fn build_index(keys: &[u32]) -> std::collections::HashMap<u32, usize> {
    keys.iter().enumerate().map(|(i, &k)| (k, i)).collect()
}

#[expect(clippy::disallowed_types, reason = "D1")]
pub fn distinct(keys: &[u32]) -> usize {
    keys.iter().collect::<std::collections::HashSet<_>>().len()
}

// D2: clock and environment reads.

#[expect(clippy::disallowed_types, reason = "D2")]
pub fn elapsed_nanos() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

#[expect(clippy::disallowed_types, reason = "D2")]
pub fn after_epoch() -> bool {
    std::time::SystemTime::now() > std::time::UNIX_EPOCH
}

#[expect(clippy::disallowed_methods, reason = "D2")]
pub fn threads() -> bool {
    std::env::var("SP_THREADS").is_ok()
}

#[expect(clippy::disallowed_methods, reason = "D2")]
pub fn threads_os() -> bool {
    std::env::var_os("SP_THREADS").is_some()
}

#[expect(clippy::disallowed_methods, reason = "D2")]
pub fn env_size() -> usize {
    std::env::vars().count()
}

#[expect(clippy::disallowed_methods, reason = "D2")]
pub fn env_size_os() -> usize {
    std::env::vars_os().count()
}

// D3: unseeded randomness.

#[expect(clippy::disallowed_methods, reason = "D3")]
pub fn roll() {
    let _ = rand::thread_rng();
}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "D3, R1a"
)]
pub fn fresh_stream() -> rand::rngs::SmallRng {
    rand::SeedableRng::from_entropy()
}

#[expect(clippy::disallowed_types, reason = "D3")]
pub type OsRng = rand::rngs::OsRng;

// S1: unsafe without a SAFETY comment.

#[expect(clippy::undocumented_unsafe_blocks, reason = "S1")]
pub fn read_first(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(0) }
}

pub struct Token(pub *const u8);

// A comment above that is not a SAFETY comment documents nothing.
#[expect(clippy::undocumented_unsafe_blocks, reason = "S1")]
unsafe impl Send for Token {}

// S2: unwrap outside tests.

#[expect(clippy::unwrap_used, reason = "S2")]
pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

// F1: parallel reductions, whose bits depend on scheduling.

#[expect(clippy::disallowed_methods, reason = "F1")]
pub fn total_bandwidth<I: ParallelIterator<Item = f64>>(loads: I) -> f64 {
    loads.sum()
}

#[expect(clippy::disallowed_methods, reason = "F1")]
pub fn product_of<I: ParallelIterator<Item = f64>>(scales: I) -> f64 {
    scales.product()
}

// F2: shared-state primitives.

#[expect(clippy::disallowed_types, reason = "F2")]
pub type Mutex = std::sync::Mutex<u64>;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type RwLock = std::sync::RwLock<u64>;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type Condvar = std::sync::Condvar;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type Barrier = std::sync::Barrier;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type OnceLock = std::sync::OnceLock<u64>;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type LazyLock = std::sync::LazyLock<u64>;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicBool = std::sync::atomic::AtomicBool;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicI8 = std::sync::atomic::AtomicI8;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicI16 = std::sync::atomic::AtomicI16;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicI32 = std::sync::atomic::AtomicI32;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicI64 = std::sync::atomic::AtomicI64;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicIsize = std::sync::atomic::AtomicIsize;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicPtr = std::sync::atomic::AtomicPtr<u8>;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicU8 = std::sync::atomic::AtomicU8;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicU16 = std::sync::atomic::AtomicU16;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicU32 = std::sync::atomic::AtomicU32;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicU64 = std::sync::atomic::AtomicU64;
#[expect(clippy::disallowed_types, reason = "F2")]
pub type AtomicUsize = std::sync::atomic::AtomicUsize;

// F3: channels outside the supervised barrier code.

#[expect(clippy::disallowed_types, reason = "F3")]
pub type Sender = std::sync::mpsc::Sender<u64>;
#[expect(clippy::disallowed_types, reason = "F3")]
pub type SyncSender = std::sync::mpsc::SyncSender<u64>;
#[expect(clippy::disallowed_types, reason = "F3")]
pub type Receiver = std::sync::mpsc::Receiver<u64>;

// P1: I/O in a pure crate.

#[expect(clippy::print_stdout, reason = "P1")]
pub fn report(hits: u64) {
    println!("{hits}");
}

#[expect(clippy::print_stderr, reason = "P1")]
pub fn warn(hits: u64) {
    eprintln!("{hits}");
}

#[expect(clippy::dbg_macro, reason = "P1")]
pub fn trace(hits: u64) -> u64 {
    dbg!(hits)
}

#[expect(clippy::disallowed_types, reason = "P1")]
pub type File = std::fs::File;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type OpenOptions = std::fs::OpenOptions;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type DirBuilder = std::fs::DirBuilder;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type TcpListener = std::net::TcpListener;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type TcpStream = std::net::TcpStream;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type UdpSocket = std::net::UdpSocket;
#[expect(clippy::disallowed_types, reason = "P1")]
pub type Command = std::process::Command;

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_canonicalize() {
    let _ = std::fs::canonicalize("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_copy() {
    let _ = std::fs::copy("a", "b");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_create_dir() {
    let _ = std::fs::create_dir("d");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_create_dir_all() {
    let _ = std::fs::create_dir_all("d");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_exists() {
    let _ = std::fs::exists("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_hard_link() {
    let _ = std::fs::hard_link("a", "b");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_metadata() {
    let _ = std::fs::metadata("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_read() {
    let _ = std::fs::read("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_read_dir() {
    let _ = std::fs::read_dir("d");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_read_link() {
    let _ = std::fs::read_link("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_read_to_string() {
    let _ = std::fs::read_to_string("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_remove_dir() {
    let _ = std::fs::remove_dir("d");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_remove_dir_all() {
    let _ = std::fs::remove_dir_all("d");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_remove_file() {
    let _ = std::fs::remove_file("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_rename() {
    let _ = std::fs::rename("a", "b");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_set_permissions(perm: std::fs::Permissions) {
    let _ = std::fs::set_permissions("p", perm);
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_symlink_metadata() {
    let _ = std::fs::symlink_metadata("p");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn fs_write() {
    let _ = std::fs::write("p", b"x");
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn io_stdin() {
    let _ = std::io::stdin();
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn io_stdout() {
    let _ = std::io::stdout();
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn io_stderr() {
    let _ = std::io::stderr();
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn process_abort() -> ! {
    std::process::abort()
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn process_exit() -> ! {
    std::process::exit(1)
}

#[expect(clippy::disallowed_methods, reason = "P1")]
pub fn process_id() -> u32 {
    std::process::id()
}

// R1a: generators outside the SpRng lineage.

#[expect(clippy::disallowed_types, reason = "R1a")]
pub type SmallRng = rand::rngs::SmallRng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type StdRng = rand::rngs::StdRng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type ThreadRng = rand::rngs::ThreadRng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type ChaCha8Rng = rand_chacha::ChaCha8Rng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type ChaCha12Rng = rand_chacha::ChaCha12Rng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type ChaCha20Rng = rand_chacha::ChaCha20Rng;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type Pcg32 = rand_pcg::Pcg32;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type Pcg64 = rand_pcg::Pcg64;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type Xoshiro128PlusPlus = rand_xoshiro::Xoshiro128PlusPlus;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type Xoshiro256PlusPlus = rand_xoshiro::Xoshiro256PlusPlus;
#[expect(clippy::disallowed_types, reason = "R1a")]
pub type Xoshiro256StarStar = rand_xoshiro::Xoshiro256StarStar;

// R1b: an SpRng root outside the seed-root modules.

#[expect(clippy::disallowed_methods, reason = "R1b")]
pub fn local_rng(tick: u64) -> SpRng {
    SpRng::seed_from_u64(tick)
}

#[expect(clippy::disallowed_methods, reason = "R1b")]
pub fn restored_rng(state: [u64; 4]) -> SpRng {
    SpRng::from_state(state)
}
