//! The receive step the staging decode replaced, kept as the tests'
//! reference: every record decoded whole, then its pages copied out of it
//! by [`stage`].

use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::PageId;
use here_vmstate::wire::{Staged, StreamDecoder};

use super::{stage, VerifyScratch};
use crate::error::CoreResult;

/// [`stage_next`](super::stage_next) as it was: the next record
/// materialised by `StreamDecoder::next_record`, then staged from that
/// copy. Every record comes back as [`Staged::Record`].
pub(crate) fn stage_next(
    dec: &mut StreamDecoder,
    replica: &GuestMemory,
    verify: Option<&mut VerifyScratch>,
    staged: &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<Option<Staged>> {
    let Some(record) = dec.next_record()? else {
        return Ok(None);
    };
    stage(&record, replica, verify, staged)?;
    Ok(Some(Staged::Record(record)))
}
