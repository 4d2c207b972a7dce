//! The benchmark's own model every round is checked against: the last
//! committed value of each (key, column), ordered by the commit timestamps
//! `Database::commit` returned.

use crate::spec::{initial_value, TxnInput, COLS, ROWS, SCAN_SPAN};

pub struct Model {
    values: Vec<u64>,
    touched: Vec<bool>,
    /// Per column, prefix sums over keys: `prefix[c][k]` sums keys `0..k`.
    prefix: Vec<Vec<u64>>,
}

impl Model {
    /// Replay committed transactions in commit-timestamp order over the
    /// loaded rows. `log` holds `(commit_ts, client, input index)`.
    pub fn build(
        seed: u64,
        round: u64,
        inputs: &[Vec<TxnInput>],
        log: &mut [(u64, usize, usize)],
    ) -> Result<Model, String> {
        let mut values = Vec::with_capacity(ROWS as usize * COLS);
        for key in 0..ROWS {
            values.extend((0..COLS).map(|c| initial_value(seed, round, key, c)));
        }
        let mut touched = vec![false; ROWS as usize];
        log.sort_unstable();
        if let Some(w) = log.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("two commits share commit_ts {}", w[0].0));
        }
        for &(_, client, idx) in log.iter() {
            for (key, cols) in &inputs[client][idx].writes {
                touched[*key as usize] = true;
                for &(col, v) in cols {
                    values[*key as usize * COLS + col] = v;
                }
            }
        }
        let prefix = (0..COLS)
            .map(|c| {
                let mut acc = 0u64;
                let mut p = Vec::with_capacity(ROWS as usize + 1);
                p.push(0);
                for key in 0..ROWS as usize {
                    acc = acc.wrapping_add(values[key * COLS + c]);
                    p.push(acc);
                }
                p
            })
            .collect();
        Ok(Model {
            values,
            touched,
            prefix,
        })
    }

    pub fn row(&self, key: u64) -> &[u64] {
        let at = key as usize * COLS;
        &self.values[at..at + COLS]
    }

    pub fn touched(&self) -> impl Iterator<Item = u64> + '_ {
        (0..ROWS).filter(|&k| self.touched[k as usize])
    }

    /// SUM of `col` over the whole table.
    pub fn col_sum(&self, col: usize) -> u64 {
        self.prefix[col][ROWS as usize]
    }

    /// SUM of `col` over the `SCAN_SPAN` keys starting at `first`.
    pub fn span_sum(&self, first: u64, col: usize) -> u64 {
        let p = &self.prefix[col];
        p[(first + SCAN_SPAN) as usize].wrapping_sub(p[first as usize])
    }
}
