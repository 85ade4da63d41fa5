//! Process CPU time, counting threads that have already exited.
//!
//! `/proc/self/task/*/schedstat` is per live thread: an entry vanishes when
//! its thread exits, so a sum taken after sender threads join loses their
//! time. The process-wide `utime` + `stime` fields of `/proc/self/stat`
//! keep the time of reaped threads, at clock-tick resolution (10 ms at the
//! usual 100 Hz, far below the seconds of CPU one fixed-rate phase burns).

use std::time::Duration;

/// `AT_CLKTCK` in the ELF auxiliary vector: the tick rate `/proc` reports in.
const AT_CLKTCK: u64 = 17;

/// CPU time (user + system) of every thread this process has run so far,
/// exited ones included.
pub fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|err| format!("read /proc/self/stat: {err}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("malformed /proc/self/stat")?;
    Ok(Duration::from_secs_f64(
        ticks as f64 / ticks_per_second() as f64,
    ))
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name in
/// field 2 may hold spaces and parentheses, so fields are counted from
/// the last `)`: utime and stime are fields 14 and 15 of the line.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kernel's user-visible tick rate, read from the auxiliary vector
/// (pairs of native-endian words); 100 Hz when it is unreadable.
fn ticks_per_second() -> u64 {
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |bytes: &[u8]| u64::from_ne_bytes(bytes.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, value)| value.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn parses_utime_and_stime_after_a_name_with_spaces_and_parens() {
        let line = "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(line), Some(325));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1"), None);
    }

    #[test]
    fn counts_cpu_of_threads_that_already_exited() {
        let before = process_cpu().unwrap();
        let burned = std::thread::spawn(|| {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(300) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            x
        });
        burned.join().unwrap();
        let spent = process_cpu().unwrap() - before;
        // The thread spun for 300 ms of wall time; allow scheduling loss
        // and tick rounding, but not a reading near zero.
        assert!(
            spent >= Duration::from_millis(150),
            "counted only {spent:?}"
        );
    }
}
