// SNAP001 negative: codecs derived with the macros, a hand-written codec
// whose header says why the macros do not fit, and a test-only impl.
pub struct Gauge {
    pub total: u64,
    pub cache: Vec<u64>,
}

persist_struct!(Gauge {
    total,
    skip cache = Vec::new(),
});

pub enum Phase {
    Idle,
    Busy { since: u64 },
}

persist_enum!(Phase { 0 => Idle, 1 => Busy { since } });

pub struct Table {
    rows: Vec<u64>,
}

// lint:allow(SNAP001): restore rejects rows that are out of order
impl Persist for Table {
    fn persist(&self, w: &mut Writer) {
        let Table { rows } = self;
        rows.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rows: Vec<u64> = Vec::restore(r)?;
        if rows.iter().zip(rows.iter().skip(1)).any(|(a, b)| b < a) {
            return Err(PersistError::Corrupt("rows out of order".into()));
        }
        Ok(Table { rows })
    }
}

#[cfg(test)]
mod tests {
    struct Probe(u8);

    impl Persist for Probe {
        fn persist(&self, w: &mut Writer) {
            w.put_u8(self.0);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
            Ok(Probe(r.get_u8()?))
        }
    }
}
