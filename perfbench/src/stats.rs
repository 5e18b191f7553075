//! Percentiles and summaries over the runner's own per-operation samples.

use enode_serve::fleet::percentile_us;
use enode_tensor::rng::splitmix64;

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly above `value` in ascending-sorted samples.
pub fn beyond(sorted: &[u64], value: u64) -> usize {
    sorted.len() - sorted.partition_point(|&v| v <= value)
}

/// Percentile `pct` of ascending-sorted samples by the nearest-rank rule
/// of `enode_serve::fleet::percentile_us`.
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(sorted: &[u64], pct: u64) -> Result<u64, String> {
    let value = percentile_us(sorted, pct);
    let n = beyond(sorted, value);
    if n < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {} samples has {n} beyond it, fewer than {MIN_BEYOND}",
            sorted.len()
        ));
    }
    Ok(value)
}

/// Sorts a sample set ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints the median, p75, p90 and p99 of ascending-sorted samples (each
/// only if it has [`MIN_BEYOND`] samples beyond it), divided by `scale`.
pub fn print_percentiles(what: &str, sorted: &[u64], scale: f64, unit: &str) {
    let shown: Vec<String> = [50, 75, 90, 99]
        .iter()
        .filter_map(|&p| {
            let v = percentile(sorted, p).ok()?;
            Some(format!("p{p} {:.4} {unit}", v as f64 / scale))
        })
        .collect();
    println!("{what}: {} samples; {}", sorted.len(), shown.join(", "));
}

/// Raw per-operation times (integer ns) of one run, grouped by work
/// slice, in buffers of fixed size allocated and written before the run,
/// so the runner's share of peak memory is the same whatever the rate.
///
/// Operation `k` of the run carries a fixed pseudo-random tag, `mix(k)`.
/// At stride `s` (a power of two) only operations whose tag is a
/// multiple of `s` are kept. When the buffer is full the stride doubles
/// and the kept samples whose tag no longer qualifies are dropped, so the
/// kept samples stay a uniform subset of all operations, about one in
/// `s`, with no bias toward any position in a batch.
#[derive(Debug)]
pub struct OpSamples {
    /// `tag << 32 | raw ns` of each kept operation, in completion order.
    kept: Vec<u64>,
    /// `(slice, index of its first kept sample)`, in slice order.
    starts: Vec<(usize, usize)>,
    /// Sorting space for [`OpSamples::sorted`].
    scratch: Vec<u64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

/// The tag of operation `k`: the low 32 bits of `splitmix64` from `k`.
fn mix(k: u64) -> u64 {
    let mut state = k;
    splitmix64(&mut state) & 0xFFFF_FFFF
}

impl OpSamples {
    /// Buffers for `cap` samples, allocated and written now.
    pub fn new(cap: usize) -> Self {
        // Non-zero fill: an all-zero buffer would come from calloc untouched.
        let presized = || {
            let mut v = vec![u64::MAX; cap];
            v.clear();
            v
        };
        OpSamples {
            kept: presized(),
            starts: Vec::with_capacity(4096),
            scratch: presized(),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Opens work slice `slice`: later samples belong to it.
    pub fn begin_slice(&mut self, slice: usize) {
        self.starts.push((slice, self.kept.len()));
    }

    /// Records the next operation's raw time (ns, below 2^32).
    pub fn push(&mut self, ns: u64) {
        let tag = mix(self.seen);
        self.seen += 1;
        if !tag.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == self.cap {
            self.thin();
            if !tag.is_multiple_of(self.stride) {
                return;
            }
        }
        self.kept.push(tag << 32 | ns.min(u64::from(u32::MAX)));
    }

    /// Doubles the stride and drops the samples it no longer keeps.
    fn thin(&mut self) {
        self.stride *= 2;
        let mut next = 0;
        let mut w = 0;
        for r in 0..self.kept.len() {
            while next < self.starts.len() && self.starts[next].1 == r {
                self.starts[next].1 = w;
                next += 1;
            }
            if (self.kept[r] >> 32).is_multiple_of(self.stride) {
                self.kept[w] = self.kept[r];
                w += 1;
            }
        }
        for s in &mut self.starts[next..] {
            s.1 = w;
        }
        self.kept.truncate(w);
    }

    /// Kept samples.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// `true` when no sample is kept.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Operations recorded, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// One in how many operations is kept.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Bytes of the buffers.
    pub fn bytes(&self) -> usize {
        (self.kept.capacity() + self.scratch.capacity()) * 8
            + self.starts.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// `(slice, raw ns)` of every kept sample, in completion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.starts
            .iter()
            .enumerate()
            .flat_map(move |(i, &(slice, lo))| {
                let hi = self.starts.get(i + 1).map_or(self.kept.len(), |s| s.1);
                self.kept[lo..hi]
                    .iter()
                    .map(move |&v| (slice, v & 0xFFFF_FFFF))
            })
    }

    /// Every kept sample scaled by its slice's `factor`, rounded to whole
    /// ns and sorted ascending (a factor of 1 gives the raw samples).
    pub fn sorted(&mut self, factor: impl Fn(usize) -> f64) -> &[u64] {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(
            self.iter()
                .map(|(slice, ns)| (ns as f64 * factor(slice)).round() as u64),
        );
        scratch.sort_unstable();
        self.scratch = scratch;
        &self.scratch
    }
}
