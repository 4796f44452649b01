// SNAP001 positive: hand-written codecs with no stated reason. Each
// header draws a finding, generic and path-qualified impls included,
// and a reasonless marker (S001) suppresses nothing.
pub struct Meter {
    pub ticks: u64,
}

impl Persist for Meter {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.ticks);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Meter { ticks: r.get_u64()? })
    }
}

impl<T: Persist> eards_sim::Persist for Boxed<T> {
    fn persist(&self, w: &mut Writer) {
        self.inner.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Boxed { inner: T::restore(r)? })
    }
}

// lint:allow(SNAP001)
impl Persist for Unexplained {
    fn persist(&self, _w: &mut Writer) {}

    fn restore(_r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Unexplained)
    }
}
