//! The receive step the two-pass receive replaced, kept as the tests'
//! reference: every record decoded whole, then its pages copied out of it
//! into a staging list by [`stage`], which the caller installs in order.

use here_hypervisor::memory::{GuestMemory, PageVersion};
use here_hypervisor::PageId;
use here_vmstate::wire::{Record, StreamDecoder};

use super::{check_content, check_in_range, Received, VerifyScratch};
use crate::error::CoreResult;

/// [`verify_next`](super::verify_next) in its simplest form: the next
/// record materialised by `StreamDecoder::next_record`, then its pages
/// appended to `staged` by [`stage`].
pub(crate) fn stage_next(
    dec: &mut StreamDecoder,
    replica: &GuestMemory,
    verify: Option<&mut VerifyScratch>,
    staged: &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<Option<Received>> {
    let Some(record) = dec.next_record()? else {
        return Ok(None);
    };
    let from = staged.len();
    stage(&record, replica, verify, staged)?;
    let base_epoch = match &record {
        Record::PageBatch(_) | Record::PageDataBatch(_) => None,
        Record::PageColumns(batch) => Some(batch.base_epoch()),
        _ => return Ok(Some(Received::Record(record))),
    };
    Ok(Some(Received::Pages {
        count: staged.len() - from,
        base_epoch,
    }))
}

/// Appends the pages `record` carries to `staged` once every frame is
/// inside `replica` and, when `verify` lends its scratch, each payload's
/// content is the image its version record mandates. Records that carry
/// no pages stage nothing. Nothing is written: after an `Err` the caller
/// discards `staged` and the replica is as it was.
pub(crate) fn stage(
    record: &Record,
    replica: &GuestMemory,
    verify: Option<&mut VerifyScratch>,
    staged: &mut Vec<(PageId, PageVersion)>,
) -> CoreResult<()> {
    let from = staged.len();
    match record {
        Record::PageBatch(batch) => staged.extend_from_slice(batch.entries()),
        Record::PageDataBatch(batch) => {
            staged.extend(batch.pages().iter().map(|&(page, rec, _)| (page, rec)))
        }
        Record::PageColumns(batch) => {
            staged.extend(batch.entries().iter().map(|&(page, rec, _)| (page, rec)))
        }
        _ => return Ok(()),
    }
    let top = staged[from..].iter().map(|(page, _)| page.frame()).max();
    check_in_range(top.unwrap_or(0), replica)?;
    match verify {
        Some(scratch) => check_content(record, replica, scratch),
        None => Ok(()),
    }
}
