//! A signal-sampling profiler loaded with `LD_PRELOAD` (x86-64 Linux).
//!
//! When the library is loaded into a process whose environment sets
//! `SAMPLER_OUT`, a constructor arms a POSIX timer on `CLOCK_MONOTONIC`
//! that sends `SIGPROF` to the main thread (`SIGEV_THREAD_ID`) every
//! `INTERVAL_US` (50) microseconds. Each signal records the interrupted
//! instruction pointer and the `STACK_WORDS` (8) words at and above the
//! stack pointer. At a leaf function's first instructions (an out-of-line
//! accessor) the word at the stack pointer is the return address, so the
//! sample can be charged to the caller; a library leaf that has pushed
//! registers or reserved a frame (a `memcpy` mid-copy) has it a few words
//! higher. Elsewhere they are arbitrary stack words, and `symbolize.py`
//! only uses them when the instruction pointer alone does not place the
//! sample.
//!
//! At exit the samples are written to `$SAMPLER_OUT` together with a copy
//! of `/proc/self/maps`, which `symbolize.py` needs to turn run-time
//! addresses back into file addresses. Only the main thread is sampled:
//! the profiled binaries (`perfbench`, `specrun-lab run --threads 1`)
//! simulate on it.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the sampler reads x86-64 Linux signal contexts");

use std::cell::UnsafeCell;
use std::ffi::{c_int, c_long, c_void};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const SIGPROF: c_int = 27;
const SA_SIGINFO: c_int = 4;
const SA_RESTART: c_int = 0x1000_0000;
const CLOCK_MONOTONIC: c_int = 1;
const SIGEV_THREAD_ID: c_int = 4;
const SYS_GETTID: c_long = 186;
/// `uc_mcontext.gregs` offset in glibc's x86-64 `ucontext_t`.
const GREGS_OFFSET: usize = 40;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

/// The sampling period: enough samples to rank functions on a run of a
/// few milliseconds, while a 25 s benchmark run (at most 500k samples)
/// still fits in `CAPACITY`.
const INTERVAL_US: i64 = 50;

/// At most this many samples are kept (72 MiB of address space, touched
/// only as samples arrive); later ones are counted as dropped.
const CAPACITY: usize = 1 << 20;

/// Stack words recorded per sample, from the stack pointer upwards.
const STACK_WORDS: usize = 8;

/// One sample: the instruction pointer, then the stack words.
type Sample = [u64; 1 + STACK_WORDS];

/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct SigAction {
    sa_sigaction: usize,
    sa_mask: [u64; 16],
    sa_flags: c_int,
    sa_restorer: usize,
}

/// glibc's x86-64 `struct sigevent` with the `SIGEV_THREAD_ID` member of
/// its union; padded to the kernel's 64 bytes.
#[repr(C)]
struct SigEvent {
    sigev_value: usize,
    sigev_signo: c_int,
    sigev_notify: c_int,
    sigev_notify_thread_id: c_int,
    _pad: [c_int; 11],
}

#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct ITimerSpec {
    it_interval: TimeSpec,
    it_value: TimeSpec,
}

extern "C" {
    fn sigaction(signum: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn timer_create(clock: c_int, sevp: *mut SigEvent, timer: *mut *mut c_void) -> c_int;
    fn timer_settime(
        timer: *mut c_void,
        flags: c_int,
        new: *const ITimerSpec,
        old: *mut ITimerSpec,
    ) -> c_int;
    fn timer_delete(timer: *mut c_void) -> c_int;
    fn syscall(number: c_long, ...) -> c_long;
    fn atexit(f: extern "C" fn()) -> c_int;
}

/// The sample buffer: `[rip, [rsp], [rsp + 8], ...]` records. The signal
/// handler is its
/// only writer and runs on the main thread only, one signal at a time
/// (`SIGPROF` is blocked while its handler runs).
struct Samples(UnsafeCell<[Sample; CAPACITY]>);

// SAFETY: the handler writes slot `i` before publishing `i + 1` in `TAKEN`
// with `Release`, and readers only read slots below a `TAKEN` value they
// loaded with `Acquire`, so no slot is read while it is written.
unsafe impl Sync for Samples {}

static SAMPLES: Samples = Samples(UnsafeCell::new([[0; 1 + STACK_WORDS]; CAPACITY]));
/// Samples written to `SAMPLES`.
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Signals that arrived with the buffer full.
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// Set once the dump starts; the handler records nothing after it.
static STOPPED: AtomicBool = AtomicBool::new(false);
/// The armed timer (a glibc `timer_t`), for the dump to delete.
static TIMER: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, context: *mut c_void) {
    if STOPPED.load(Ordering::Relaxed) {
        return;
    }
    let i = TAKEN.load(Ordering::Relaxed);
    if i >= CAPACITY {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: for a handler installed with `SA_SIGINFO` the kernel passes a
    // valid `ucontext_t`, whose general registers start at `GREGS_OFFSET`
    // in glibc's x86-64 layout; RIP and RSP are entries 16 and 15.
    let (rip, rsp) = unsafe {
        let gregs = context.cast::<u8>().add(GREGS_OFFSET).cast::<u64>();
        (gregs.add(REG_RIP).read(), gregs.add(REG_RSP).read())
    };
    let mut sample: Sample = [rip; 1 + STACK_WORDS];
    for (k, word) in sample[1..].iter_mut().enumerate() {
        // SAFETY: RSP is the interrupted main thread's stack pointer. The
        // handler is installed without `SA_ONSTACK`, so the kernel wrote
        // this signal's frame on the same stack just below RSP (past the
        // red zone): the stack from there up through the word at RSP is
        // mapped. The words above RSP belong to the interrupted function's
        // own frame and its callers' frames, up to the initial stack that
        // the kernel filled at exec (argument and environment strings,
        // their pointer vectors and the auxiliary vector, several hundred
        // bytes at least), so the main thread's stack is mapped at least
        // `STACK_WORDS` words above RSP too.
        *word = unsafe { (rsp as *const u64).add(k).read_volatile() };
    }
    // SAFETY: `i < CAPACITY`, and the handler is the only writer (see
    // `Samples`); slot `i` is not yet published in `TAKEN`.
    unsafe { SAMPLES.0.get().cast::<Sample>().add(i).write(sample) };
    TAKEN.store(i + 1, Ordering::Release);
}

/// Arms the sampler when `SAMPLER_OUT` is set; runs before `main`.
extern "C" fn start() {
    if std::env::var_os("SAMPLER_OUT").is_none() {
        return;
    }
    let action = SigAction {
        sa_sigaction: on_sigprof as *const () as usize,
        sa_mask: [0; 16],
        sa_flags: SA_SIGINFO | SA_RESTART,
        sa_restorer: 0,
    };
    // SAFETY: `action` is a fully initialised glibc `struct sigaction` whose
    // handler has the three-argument `SA_SIGINFO` signature.
    if unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) } != 0 {
        eprintln!("sampler: sigaction failed; not sampling");
        return;
    }
    // SAFETY: `gettid` takes no arguments and cannot fail. Constructors run
    // on the main thread, so this is the thread the timer will signal.
    let tid = unsafe { syscall(SYS_GETTID) } as c_int;
    let mut event = SigEvent {
        sigev_value: 0,
        sigev_signo: SIGPROF,
        sigev_notify: SIGEV_THREAD_ID,
        sigev_notify_thread_id: tid,
        _pad: [0; 11],
    };
    let mut timer: *mut c_void = std::ptr::null_mut();
    // SAFETY: `event` is a valid `struct sigevent` naming a live thread of
    // this process, and `timer` is a valid out-pointer.
    if unsafe { timer_create(CLOCK_MONOTONIC, &mut event, &mut timer) } != 0 {
        eprintln!("sampler: timer_create failed; not sampling");
        return;
    }
    TIMER.store(timer as usize, Ordering::Relaxed);
    // SAFETY: `dump` is an `extern "C" fn()` that lives as long as the
    // process (the library is never unloaded).
    unsafe { atexit(dump) };
    let spec = ITimerSpec {
        it_interval: TimeSpec { tv_sec: 0, tv_nsec: INTERVAL_US * 1000 },
        it_value: TimeSpec { tv_sec: 0, tv_nsec: INTERVAL_US * 1000 },
    };
    // SAFETY: `timer` was just created, and `spec` is a valid, non-zero
    // `struct itimerspec`.
    if unsafe { timer_settime(timer, 0, &spec, std::ptr::null_mut()) } != 0 {
        eprintln!("sampler: timer_settime failed; not sampling");
    }
}

/// Stops sampling and writes `$SAMPLER_OUT`; runs at `exit`.
extern "C" fn dump() {
    STOPPED.store(true, Ordering::SeqCst);
    // SAFETY: `TIMER` holds the timer `start` created, and `dump` runs once.
    unsafe { timer_delete(TIMER.load(Ordering::Relaxed) as *mut c_void) };
    let Some(path) = std::env::var_os("SAMPLER_OUT") else { return };
    let taken = TAKEN.load(Ordering::Acquire);
    // SAFETY: slots below `taken` were published by the handler and are
    // never written again (see `Samples`).
    let samples = unsafe { std::slice::from_raw_parts(SAMPLES.0.get().cast::<Sample>(), taken) };
    if let Err(err) = write_profile(std::path::Path::new(&path), samples) {
        eprintln!("sampler: cannot write {}: {err}", path.to_string_lossy());
    }
}

/// The profile format: a header line, the process's memory map, then one
/// line per sample: the instruction pointer and the stack words, all
/// hexadecimal.
fn write_profile(path: &std::path::Path, samples: &[Sample]) -> std::io::Result<()> {
    let maps = std::fs::read_to_string("/proc/self/maps")?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "sampler 2 interval_us={INTERVAL_US} stack_words={STACK_WORDS} samples={} dropped={}",
        samples.len(),
        DROPPED.load(Ordering::Relaxed)
    )?;
    writeln!(out, "[maps]")?;
    out.write_all(maps.as_bytes())?;
    writeln!(out, "[samples]")?;
    for sample in samples {
        let line: Vec<String> = sample.iter().map(|w| format!("{w:x}")).collect();
        writeln!(out, "{}", line.join(" "))?;
    }
    out.flush()
}

#[used]
#[link_section = ".init_array"]
static START: extern "C" fn() = start;
